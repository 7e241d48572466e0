// Package workload implements the applications the paper's experiments
// drive through the substrates: the "compile Git" build job used to
// evaluate GassyFS scalability (Figure gassyfs-git), a LULESH-like
// stencil proxy application for the MPI noisy-neighbour study, and a
// filesystem microbenchmark.
package workload

import (
	"fmt"
	"math/rand"

	"popper/internal/cluster"
	"popper/internal/gassyfs"
	"popper/internal/sched"
)

// CompileSpec describes a synthetic source tree and build cost model,
// sized by default like the Git build the paper uses as its workload.
type CompileSpec struct {
	Sources    int   // number of translation units
	AvgSrcSize int   // mean bytes per source file
	Headers    int   // shared headers every unit includes
	HdrSize    int   // bytes per header
	Seed       int64 // tree generation seed

	// CompileOpsPerByte is CPU ops spent per byte of source+headers.
	CompileOpsPerByte float64
	// ObjRatio is object-file size relative to source size.
	ObjRatio float64
	// LinkOpsPerByte is CPU ops per byte of objects during the link.
	LinkOpsPerByte float64
	// JobsPerNode bounds per-node build parallelism (make -j).
	JobsPerNode int

	// HostJobs bounds the host goroutines driving the per-rank clients
	// concurrently; <= 0 means one per host CPU, 1 runs ranks serially.
	// Simulated results are bit-identical for every value — each rank's
	// client runs on its own goroutine with its own clock, and block
	// placement is interleaving-independent (see docs/SUBSTRATES.md).
	HostJobs int
	// Pool, when set, supplies the worker pool (so a sweep can share one
	// across runs); otherwise one is created from HostJobs.
	Pool *sched.Pool
}

// GitCompileSpec returns a spec shaped like building Git from source:
// several hundred translation units plus a body of shared headers.
func GitCompileSpec() CompileSpec {
	return CompileSpec{
		Sources:           480,
		AvgSrcSize:        24 << 10,
		Headers:           40,
		HdrSize:           12 << 10,
		Seed:              1,
		CompileOpsPerByte: 12000, // a compiler does real work per byte
		ObjRatio:          1.6,
		LinkOpsPerByte:    600,
		JobsPerNode:       8,
	}
}

func (s CompileSpec) validate() error {
	switch {
	case s.Sources <= 0 || s.AvgSrcSize <= 0:
		return fmt.Errorf("workload: spec needs positive sources and sizes")
	case s.Headers < 0 || s.HdrSize < 0:
		return fmt.Errorf("workload: negative header config")
	case s.CompileOpsPerByte <= 0 || s.LinkOpsPerByte < 0 || s.ObjRatio <= 0:
		return fmt.Errorf("workload: cost model must be positive")
	case s.JobsPerNode <= 0:
		return fmt.Errorf("workload: JobsPerNode must be positive")
	}
	return nil
}

func srcPath(i int) string { return fmt.Sprintf("/src/c/file%04d.c", i) }
func objPath(i int) string { return fmt.Sprintf("/src/obj/file%04d.o", i) }
func hdrPath(i int) string { return fmt.Sprintf("/src/include/hdr%03d.h", i) }

// GenerateTree writes the synthetic source tree into the filesystem
// through the given client.
func GenerateTree(cl *gassyfs.Client, spec CompileSpec) error {
	tree, err := SynthTree(spec)
	if err != nil {
		return err
	}
	return tree.Write(cl)
}

// Tree is a synthesized source tree held in memory: the seeded header
// and source bytes of one spec. It is read-only once built, so a caller
// that builds the same spec on several fresh filesystems (one per node
// count) synthesizes it once and writes it into each.
type Tree struct {
	headers [][]byte
	sources [][]byte
}

// SynthTree generates the spec's header and source bytes from its seed.
func SynthTree(spec CompileSpec) (*Tree, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	t := &Tree{
		headers: make([][]byte, spec.Headers),
		sources: make([][]byte, spec.Sources),
	}
	for h := range t.headers {
		t.headers[h] = synthBytes(rng, spec.HdrSize)
	}
	for i := range t.sources {
		size := spec.AvgSrcSize/2 + rng.Intn(spec.AvgSrcSize)
		t.sources[i] = synthBytes(rng, size)
	}
	return t, nil
}

// Write creates the tree's directories and files through the client,
// headers first, then sources in index order.
func (t *Tree) Write(cl *gassyfs.Client) error {
	for _, d := range []string{"/src", "/src/c", "/src/include", "/src/obj", "/src/bin"} {
		if err := cl.MkdirAll(d); err != nil {
			return err
		}
	}
	for h, data := range t.headers {
		if err := cl.WriteFile(hdrPath(h), data); err != nil {
			return err
		}
	}
	for i, data := range t.sources {
		if err := cl.WriteFile(srcPath(i), data); err != nil {
			return err
		}
	}
	return nil
}

// synthBytes draws n bytes from a fixed alphabet. It inlines
// rng.Intn(len(chars)) — math/rand's Int31n rejection loop over the top
// 31 bits of Int63 — so it consumes the stream exactly as a per-byte
// Intn call would, and a seed yields the same bytes, without that call
// chain per byte.
func synthBytes(rng *rand.Rand, n int) []byte {
	const chars = "abcdefghijklmnopqrstuvwxyz(){};/* */\n\t#include int return"
	const limit = int32((1<<31 - 1) - (1<<31)%len(chars))
	out := make([]byte, n)
	for i := range out {
		v := int32(rng.Int63() >> 32)
		for v > limit {
			v = int32(rng.Int63() >> 32)
		}
		out[i] = chars[v%int32(len(chars))]
	}
	return out
}

// zeros returns n zero bytes backed by *buf, growing it on demand. The
// bytes are only ever read (filesystem writes copy them), so one buffer
// serves every all-zero file a rank writes.
func zeros(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// CompileResult summarizes one distributed build.
type CompileResult struct {
	Nodes       int
	Elapsed     float64 // virtual seconds, generation excluded
	CompileTime float64 // parallel phase
	LinkTime    float64 // serial phase on rank 0
	ObjectBytes int64
}

// compileShard runs one rank's share of the build: read the shared
// headers, compile the rank's round-robin slice of sources into object
// files, then charge the shard's compute. All costs land on the rank's
// own node clock and every filesystem op goes through the rank's own
// client, so the shard's simulated behaviour is independent of how
// shards interleave on the host. Object files are all zeros; they are
// written from *zbuf, which grows to the largest object and is reused.
func compileShard(fs *gassyfs.FS, spec CompileSpec, rank int, zbuf *[]byte) error {
	world := fs.World()
	cl, err := fs.Client(rank)
	if err != nil {
		return err
	}
	node, _ := world.Node(rank)
	// Each rank reads the shared headers once (they stay in page cache).
	var headerBytes int64
	for h := 0; h < spec.Headers; h++ {
		data, err := cl.ReadFile(hdrPath(h))
		if err != nil {
			return fmt.Errorf("workload: reading header: %w", err)
		}
		headerBytes += int64(len(data))
	}
	var shardCPU float64
	n := world.Size()
	for i := rank; i < spec.Sources; i += n {
		src, err := cl.ReadFile(srcPath(i))
		if err != nil {
			return fmt.Errorf("workload: reading source: %w", err)
		}
		unitBytes := float64(len(src)) + float64(headerBytes)
		shardCPU += unitBytes * spec.CompileOpsPerByte
		obj := zeros(zbuf, int(float64(len(src))*spec.ObjRatio))
		if err := cl.WriteFile(objPath(i), obj); err != nil {
			return fmt.Errorf("workload: writing object: %w", err)
		}
	}
	// The shard's compute parallelizes across local cores (make -j).
	node.RunParallel(cluster.Work{CPUOps: shardCPU, MemBytes: shardCPU / 20}, spec.JobsPerNode, 0.02)
	return nil
}

// CompileOnCluster builds the tree on every rank of the filesystem's
// world: sources are sharded round-robin across ranks, each rank compiles
// its shard with JobsPerNode-way parallelism, and rank 0 links. This is
// the paper's Figure gassyfs-git workload.
//
// Ranks are driven concurrently on host goroutines (one per rank,
// bounded by HostJobs/Pool). The simulated result is bit-identical to a
// serial drive: each rank only ever advances its own logical clock, and
// the striped allocator places each writer's blocks independently of
// scheduling.
func CompileOnCluster(fs *gassyfs.FS, spec CompileSpec) (CompileResult, error) {
	if err := spec.validate(); err != nil {
		return CompileResult{}, err
	}
	world := fs.World()
	n := world.Size()
	start := world.Barrier()

	// --- parallel compile phase: one goroutine per rank ---
	pool := spec.Pool
	if pool == nil {
		pool = sched.NewPool(spec.HostJobs)
	}
	zbufs := make([][]byte, n)
	errs := pool.Each(n, func(rank int) error {
		return compileShard(fs, spec, rank, &zbufs[rank])
	})
	if err := sched.FirstError(errs); err != nil {
		return CompileResult{}, err
	}
	compileEnd := world.Barrier()

	// --- serial link phase on rank 0 ---
	cl0, err := fs.Client(0)
	if err != nil {
		return CompileResult{}, err
	}
	var objTotal int64
	for i := 0; i < spec.Sources; i++ {
		obj, err := cl0.ReadFile(objPath(i))
		if err != nil {
			return CompileResult{}, fmt.Errorf("workload: reading object: %w", err)
		}
		objTotal += int64(len(obj))
	}
	node0, _ := world.Node(0)
	node0.Run(cluster.Work{CPUOps: float64(objTotal) * spec.LinkOpsPerByte, MemBytes: float64(objTotal)})
	if err := cl0.WriteFile("/src/bin/git", zeros(&zbufs[0], int(objTotal/3))); err != nil {
		return CompileResult{}, err
	}
	end := world.Barrier()

	return CompileResult{
		Nodes:       n,
		Elapsed:     end - start,
		CompileTime: compileEnd - start,
		LinkTime:    end - compileEnd,
		ObjectBytes: objTotal,
	}, nil
}
