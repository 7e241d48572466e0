package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/mpi"
)

// smallSpec is a fast version of the Git compile tree for tests.
func smallSpec() CompileSpec {
	s := GitCompileSpec()
	s.Sources = 48
	s.AvgSrcSize = 4 << 10
	s.Headers = 6
	s.HdrSize = 2 << 10
	return s
}

func buildFS(t *testing.T, nodes int, seed int64) *gassyfs.FS {
	t.Helper()
	c := cluster.New(seed)
	ns, err := c.Provision("cloudlab-c220g1", nodes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(ns, cluster.NewNetwork(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(64 << 20); err != nil {
		t.Fatal(err)
	}
	fs, err := gassyfs.Mount(w, gassyfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestGenerateTree(t *testing.T) {
	fs := buildFS(t, 2, 1)
	cl, _ := fs.Client(0)
	spec := smallSpec()
	if err := GenerateTree(cl, spec); err != nil {
		t.Fatal(err)
	}
	entries, err := cl.Readdir("/src/c")
	if err != nil || len(entries) != spec.Sources {
		t.Fatalf("sources = %d, %v", len(entries), err)
	}
	hdrs, _ := cl.Readdir("/src/include")
	if len(hdrs) != spec.Headers {
		t.Fatalf("headers = %d", len(hdrs))
	}
	st, err := cl.Stat("/src/c/file0000.c")
	if err != nil || st.Size < int64(spec.AvgSrcSize/2) {
		t.Fatalf("source size = %d, %v", st.Size, err)
	}
}

func TestGenerateTreeDeterministic(t *testing.T) {
	spec := smallSpec()
	read := func(seed int64) []byte {
		fs := buildFS(t, 1, seed)
		cl, _ := fs.Client(0)
		if err := GenerateTree(cl, spec); err != nil {
			t.Fatal(err)
		}
		b, _ := cl.ReadFile("/src/c/file0007.c")
		return b
	}
	a, b := read(5), read(9) // different cluster seeds, same tree seed
	if string(a) != string(b) {
		t.Fatal("tree generation must be deterministic in spec.Seed")
	}
}

// refTree is the per-byte reference generator SynthTree must match: one
// rng.Intn call per byte, and each source's size drawn just before its
// bytes. It returns the files' contents in write order, headers first.
func refTree(spec CompileSpec) [][]byte {
	const chars = "abcdefghijklmnopqrstuvwxyz(){};/* */\n\t#include int return"
	rng := rand.New(rand.NewSource(spec.Seed))
	gen := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = chars[rng.Intn(len(chars))]
		}
		return out
	}
	var files [][]byte
	for h := 0; h < spec.Headers; h++ {
		files = append(files, gen(spec.HdrSize))
	}
	for i := 0; i < spec.Sources; i++ {
		size := spec.AvgSrcSize/2 + rng.Intn(spec.AvgSrcSize)
		files = append(files, gen(size))
	}
	return files
}

func TestSynthTreeMatchesReference(t *testing.T) {
	for _, base := range []struct {
		name string
		spec CompileSpec
	}{{"small", smallSpec()}, {"git", GitCompileSpec()}} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, sources := range []int{64, 96, 128, 160} {
				spec := base.spec
				spec.Seed, spec.Sources = seed, sources
				tree, err := SynthTree(spec)
				if err != nil {
					t.Fatal(err)
				}
				got := append(append([][]byte{}, tree.headers...), tree.sources...)
				want := refTree(spec)
				if len(got) != len(want) {
					t.Fatalf("%s seed=%d sources=%d: %d files, want %d", base.name, seed, sources, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s seed=%d sources=%d: file %d differs from the reference", base.name, seed, sources, i)
					}
				}
			}
		}
	}
}

// treeDigest hashes a generated tree read back from the filesystem:
// each file's path, a NUL and its bytes, in write order.
func treeDigest(t *testing.T, cl *gassyfs.Client, spec CompileSpec) string {
	t.Helper()
	h := sha256.New()
	add := func(p string) {
		b, err := cl.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	for i := 0; i < spec.Headers; i++ {
		add(hdrPath(i))
	}
	for i := 0; i < spec.Sources; i++ {
		add(srcPath(i))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGitTreeDigest pins the seed-1 Git tree's bytes, so a drift in
// SynthTree and refTree alike still fails.
func TestGitTreeDigest(t *testing.T) {
	const want = "a4b452eacbea35568695986ff852166538563c3ae434e47cfe668796cdb5172e"
	spec := GitCompileSpec()
	fs := buildFS(t, 1, 1)
	cl, _ := fs.Client(0)
	if err := GenerateTree(cl, spec); err != nil {
		t.Fatal(err)
	}
	if got := treeDigest(t, cl, spec); got != want {
		t.Fatalf("seed-1 Git tree digest = %s, want %s", got, want)
	}
}

func TestTreeWriteReusable(t *testing.T) {
	// One synthesized tree written into two fresh filesystems reads back
	// identically in both: Write copies and never mutates the tree.
	spec := smallSpec()
	tree, err := SynthTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, nodes := range []int{1, 4} {
		fs := buildFS(t, nodes, 3)
		cl, _ := fs.Client(0)
		if err := tree.Write(cl); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, treeDigest(t, cl, spec))
	}
	if digests[0] != digests[1] {
		t.Fatalf("tree read back differently: %s vs %s", digests[0], digests[1])
	}
	want := refTree(spec)
	for i, b := range append(append([][]byte{}, tree.headers...), tree.sources...) {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("file %d of the tree changed after Write", i)
		}
	}
}

func TestCompileSpecValidation(t *testing.T) {
	fs := buildFS(t, 1, 2)
	cl, _ := fs.Client(0)
	bad := []CompileSpec{
		{},
		{Sources: 1, AvgSrcSize: 1, CompileOpsPerByte: 1, ObjRatio: 1, JobsPerNode: 0},
		{Sources: 1, AvgSrcSize: 1, CompileOpsPerByte: 0, ObjRatio: 1, JobsPerNode: 1},
		{Sources: 1, AvgSrcSize: 1, CompileOpsPerByte: 1, ObjRatio: 0, JobsPerNode: 1},
		{Sources: -1, AvgSrcSize: 1, CompileOpsPerByte: 1, ObjRatio: 1, JobsPerNode: 1},
	}
	for i, s := range bad {
		if err := GenerateTree(cl, s); err == nil {
			t.Errorf("case %d: GenerateTree should reject", i)
		}
		if _, err := SynthTree(s); err == nil {
			t.Errorf("case %d: SynthTree should reject", i)
		}
		if _, err := CompileOnCluster(fs, s); err == nil {
			t.Errorf("case %d: CompileOnCluster should reject", i)
		}
	}
}

func TestCompileProducesArtifacts(t *testing.T) {
	fs := buildFS(t, 2, 3)
	cl, _ := fs.Client(0)
	spec := smallSpec()
	if err := GenerateTree(cl, spec); err != nil {
		t.Fatal(err)
	}
	res, err := CompileOnCluster(fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.CompileTime <= 0 || res.LinkTime <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Nodes != 2 || res.ObjectBytes <= 0 {
		t.Fatalf("result = %+v", res)
	}
	objs, _ := cl.Readdir("/src/obj")
	if len(objs) != spec.Sources {
		t.Fatalf("objects = %d", len(objs))
	}
	if _, err := cl.Stat("/src/bin/git"); err != nil {
		t.Fatal("binary missing after link")
	}
}

func TestCompileScalesSublinearly(t *testing.T) {
	// The headline property of Figure gassyfs-git: more nodes reduce
	// runtime, but below the ideal linear speedup.
	spec := smallSpec()
	elapsed := map[int]float64{}
	for _, n := range []int{1, 2, 4, 8} {
		fs := buildFS(t, n, 42)
		cl, _ := fs.Client(0)
		if err := GenerateTree(cl, spec); err != nil {
			t.Fatal(err)
		}
		res, err := CompileOnCluster(fs, spec)
		if err != nil {
			t.Fatal(err)
		}
		elapsed[n] = res.Elapsed
	}
	for _, pair := range [][2]int{{1, 2}, {2, 4}, {4, 8}} {
		a, b := elapsed[pair[0]], elapsed[pair[1]]
		if b >= a {
			t.Fatalf("time must fall with nodes: t(%d)=%v t(%d)=%v", pair[0], a, pair[1], b)
		}
	}
	// sublinear: speedup(8) < 8
	if sp := elapsed[1] / elapsed[8]; sp >= 8 {
		t.Fatalf("speedup(8) = %.2f, must be sublinear", sp)
	}
	// but still meaningful parallelism: speedup(8) > 1.5
	if sp := elapsed[1] / elapsed[8]; sp < 1.5 {
		t.Fatalf("speedup(8) = %.2f, too little parallelism to be credible", sp)
	}
}

func TestGrid3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		8:  {2, 2, 2},
		27: {3, 3, 3},
		12: {2, 2, 3},
		7:  {1, 1, 7},
	}
	for n, want := range cases {
		got := grid3(n)
		if got != want {
			t.Errorf("grid3(%d) = %v, want %v", n, got, want)
		}
		if got[0]*got[1]*got[2] != n {
			t.Errorf("grid3(%d) product mismatch", n)
		}
	}
}

func TestLuleshRuns(t *testing.T) {
	c := cluster.New(4)
	nodes, _ := c.Provision("probe-opteron", 8)
	cm, _ := mpi.NewComm(nodes, cluster.NewNetwork(0))
	spec := DefaultLuleshSpec()
	spec.Iterations = 5
	spec.ProblemSize = 10
	res, err := RunLulesh(cm, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Ranks != 8 || res.Grid != [3]int{2, 2, 2} {
		t.Fatalf("result = %+v", res)
	}
	if res.MPITime <= 0 || res.MPIFraction <= 0 || res.MPIFraction >= 1 {
		t.Fatalf("mpi accounting = %+v", res)
	}
	// profiler captured the traffic
	if cm.Profiler().TotalMPITime() <= 0 {
		t.Fatal("profiler empty")
	}
}

func TestLuleshValidation(t *testing.T) {
	c := cluster.New(5)
	nodes, _ := c.Provision("probe-opteron", 1)
	cm, _ := mpi.NewComm(nodes, cluster.NewNetwork(0))
	for _, s := range []LuleshSpec{
		{},
		{Iterations: 1, ProblemSize: 0, OpsPerElement: 1, FieldsPerElement: 1},
		{Iterations: 1, ProblemSize: 1, OpsPerElement: 0, FieldsPerElement: 1},
	} {
		if _, err := RunLulesh(cm, s); err == nil {
			t.Errorf("spec %+v should be rejected", s)
		}
	}
}

func TestLuleshNoisyNeighbourVariability(t *testing.T) {
	// The paper's MPI experiment: run-to-run variability is much larger
	// when neighbours share the machines.
	spec := DefaultLuleshSpec()
	spec.Iterations = 5
	spec.ProblemSize = 10

	run := func(seed int64, noisy bool) float64 {
		c := cluster.New(seed)
		nodes, _ := c.Provision("ec2-m4", 8)
		if noisy {
			// background load varies run to run
			for i, n := range nodes {
				load := 0.1 + 0.6*float64((int(seed)+i*3)%7)/7.0
				n.SetBackgroundLoad(load)
			}
		}
		cm, _ := mpi.NewComm(nodes, cluster.NewNetwork(0))
		res, err := RunLulesh(cm, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	var quiet, noisy []float64
	for s := int64(0); s < 10; s++ {
		quiet = append(quiet, run(s, false))
		noisy = append(noisy, run(s, true))
	}
	cvQ := coeffVar(quiet)
	cvN := coeffVar(noisy)
	if cvN < cvQ*3 {
		t.Fatalf("noisy CV %.4f should be >= 3x quiet CV %.4f", cvN, cvQ)
	}
}

func coeffVar(xs []float64) float64 {
	m, ss := 0.0, 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / m
}

func TestFSBench(t *testing.T) {
	fs := buildFS(t, 2, 6)
	cl, _ := fs.Client(0)
	res, err := RunFSBench(cl, "/bench", FSBenchSpec{
		FileSize: 8 << 20, IOSize: 64 << 10, Ops: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteMBps <= 0 || res.ReadMBps <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// sequential should beat random for this remote-heavy config
	rnd, err := RunFSBench(cl, "/bench2", FSBenchSpec{
		FileSize: 8 << 20, IOSize: 64 << 10, Ops: 50, Seed: 1, RandomIO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.ReadMBps <= 0 {
		t.Fatalf("random = %+v", rnd)
	}
	// write-only skips read phase
	wo, err := RunFSBench(cl, "/bench3", FSBenchSpec{
		FileSize: 1 << 20, IOSize: 4 << 10, Ops: 10, Seed: 2, WriteOnly: true,
	})
	if err != nil || wo.ReadSeconds != 0 {
		t.Fatalf("write-only = %+v, %v", wo, err)
	}
}

func TestFSBenchValidation(t *testing.T) {
	fs := buildFS(t, 1, 7)
	cl, _ := fs.Client(0)
	for i, s := range []FSBenchSpec{
		{},
		{FileSize: 10, IOSize: 100, Ops: 1},
		{FileSize: 100, IOSize: 0, Ops: 1},
		{FileSize: 100, IOSize: 10, Ops: 0},
	} {
		if _, err := RunFSBench(cl, fmt.Sprintf("/b%d", i), s); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

func TestLuleshOverlapFasterThanBlocking(t *testing.T) {
	run := func(overlap bool) float64 {
		c := cluster.New(9)
		nodes, _ := c.Provision("probe-opteron", 8)
		cm, _ := mpi.NewComm(nodes, cluster.NewNetwork(0))
		spec := DefaultLuleshSpec()
		spec.Iterations = 4
		spec.ProblemSize = 12
		spec.Overlap = overlap
		res, err := RunLulesh(cm, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	blocking, overlapped := run(false), run(true)
	if overlapped >= blocking {
		t.Fatalf("overlap %v must beat blocking %v", overlapped, blocking)
	}
}
