package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"popper/internal/aver"
	"popper/internal/cas"
	"popper/internal/core"
	"popper/internal/fault"
	"popper/internal/pipeline"
	"popper/internal/sched"
	"popper/internal/scrub"
	"popper/internal/store"
	"popper/internal/table"
)

const (
	expName     = "gfs"
	expTemplate = "gassyfs"
	resultsPath = core.ExperimentDir + "/" + expName + "/results.csv"
	sweepPath   = core.ExperimentDir + "/" + expName + "/" + core.SweepFile
	paperPath   = core.PaperDir + "/paper.tex"
	datasetDir  = core.ExperimentDir + "/" + expName + "/datasets"

	// The dataset tree rerun-warm and repo-verify track: 8 MiB in
	// datasetFiles files, spread over datasetShards directories. Every
	// stage key hashes all of it. Each tracked file costs the priming
	// sync four fsyncs, and fsync latency on a shared host swings by
	// 10×, so 256 larger files keep set-up steady where 1024 × 8 KiB
	// made it swing between 4.6 and 13 s.
	datasetFiles     = 256
	datasetFileBytes = 32 << 10
	datasetShards    = 16

	// cliHosts is the -hosts flag the benchmarked `popper run` gets.
	cliHosts = 4
)

// inputs is everything generated from the workload seed; the program
// only ever sees the repository built from it.
type inputs struct {
	seed     int64
	sweepYML string
	datasets map[string][]byte
}

// newInputs derives a workload's inputs from its seed: a 4×4 sweep
// (seeds s..s+3 × sources 64..160) and, when withData, the seeded
// dataset tree.
func newInputs(seed int64, withData bool) *inputs {
	s := seed
	in := &inputs{
		seed: seed,
		sweepYML: fmt.Sprintf("seed: [%d, %d, %d, %d]\nsources: [64, 96, 128, 160]\n",
			s, s+1, s+2, s+3),
	}
	if withData {
		rng := rand.New(rand.NewSource(seed))
		in.datasets = make(map[string][]byte, datasetFiles)
		for i := 0; i < datasetFiles; i++ {
			buf := make([]byte, datasetFileBytes)
			rng.Read(buf)
			in.datasets[fmt.Sprintf("%s/shard-%02d/part-%04d.bin", datasetDir, i%datasetShards, i)] = buf
		}
	}
	return in
}

// writeTree drops files into the working tree by hand, the way a user
// copies them in before the next popper command picks them up.
func writeTree(dir string, files map[string][]byte) error {
	for rel, content := range files {
		abs := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(abs, content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setupRepo builds the starting repository in dir: `popper init`,
// `popper add gassyfs gfs`, then sweep.yml (and the dataset tree, when
// the inputs carry one) written into the tree by hand.
func setupRepo(dir string, in *inputs) error {
	// popper init
	st := store.Open(dir)
	files, err := st.Load()
	if err != nil {
		return err
	}
	p := core.Init()
	for path, content := range files {
		if _, ok := p.Files[path]; !ok {
			p.Files[path] = content
		}
	}
	if _, err := st.Sync(p.Files); err != nil {
		return err
	}
	// popper add gassyfs gfs: the CLI's load → apply → sync cycle.
	st = store.Open(dir)
	if files, err = st.Load(); err != nil {
		return err
	}
	if p, err = core.Load(files); err != nil {
		return err
	}
	if err := p.AddExperiment(expTemplate, expName); err != nil {
		return err
	}
	if _, err := st.Sync(p.Files); err != nil {
		return err
	}
	tree := map[string][]byte{sweepPath: []byte(in.sweepYML)}
	for path, content := range in.datasets {
		tree[path] = content
	}
	return writeTree(dir, tree)
}

// runOutcome is what one `popper run gfs` left behind.
type runOutcome struct {
	sweep   core.SweepResult
	cache   pipeline.CacheStats
	tier    cas.Stats
	sync    store.SyncStats
	results []byte
	aver    string // validations.aver source
}

// runSweep reproduces `popper -hosts 4 run gfs`: the CLI's
// withProject cycle around a warm-started, object-backed stage cache
// and a cluster sweep with the CLI's default options.
func runSweep(dir string, pr *probe) (runOutcome, error) {
	var out runOutcome
	root := pr.begin("op.run", 0)
	defer pr.end(root, "")
	st := pr.openStore(dir)

	id := pr.begin("store.load", root)
	files, err := st.Load()
	pr.end(id, "store.load_s")
	if err != nil {
		return out, err
	}
	id = pr.begin("core.load", root)
	p, err := core.Load(files)
	pr.end(id, "core.load_s")
	if err != nil {
		return out, err
	}

	id = pr.begin("store.load_cache_state", root)
	state := st.LoadCacheState()
	pr.end(id, "")
	id = pr.begin("pipeline.restore", root)
	cache := pipeline.NewCacheOpts(pipeline.CacheOptions{State: state})
	pr.end(id, "pipeline.restore_s")
	pr.set("pipeline.warm_entries", float64(cache.WarmEntries()))
	cache.Tier().SetFallback(pr.objectFallback(st))

	raw, ok := p.ExperimentFile(expName, core.SweepFile)
	if !ok {
		return out, fmt.Errorf("experiment %s has no %s", expName, core.SweepFile)
	}
	configs, err := core.ParseSweep(string(raw))
	if err != nil {
		return out, err
	}
	policy, err := sched.ParsePlacement("roundrobin")
	if err != nil {
		return out, err
	}
	id = pr.begin("core.sweep", root)
	pr.setPhase(id)
	cpu := cpuSeconds()
	sr, serr := p.RunSweep(expName, &core.Env{Seed: 1}, configs, core.SweepOptions{
		Cache:     cache,
		Retry:     fault.Retry{Backoff: 0.5, Jitter: 0.25},
		Hosts:     cliHosts,
		Placement: policy,
		Durable:   pr.durable(st),
	})
	pr.set("core.sweep_cpu_s", cpuSeconds()-cpu)
	pr.end(id, "core.sweep_s")
	pr.setPhase(root)

	id = pr.begin("pipeline.save", root)
	saved := cache.SaveState()
	pr.end(id, "pipeline.save_s")
	id = pr.begin("store.save_cache_state", root)
	// Best-effort, as in the CLI: a failed save only costs the next run
	// a cold start, which the warm workloads' miss check would catch.
	_ = st.SaveCacheState(saved)
	pr.end(id, "")

	id = pr.begin("store.sync", root)
	out.sync, err = st.Sync(p.Files)
	pr.end(id, "store.sync_s")
	if serr != nil {
		return out, serr
	}
	if err != nil {
		return out, err
	}
	out.sweep = sr
	out.cache = cache.Stats()
	out.tier = cache.Tier().Stats()
	out.results = p.Files[resultsPath]
	if src, ok := p.ExperimentFile(expName, "validations.aver"); ok {
		out.aver = string(src)
	}
	return out, sr.Err()
}

// recordRun turns a traced run's outcome into per-layer metrics.
func recordRun(pr *probe, out runOutcome) {
	if pr == nil {
		return
	}
	cs := out.cache
	pr.set("store.sync_written", float64(out.sync.Written))
	pr.set("store.sync_objects", float64(out.sync.Objects))
	pr.set("pipeline.hits", float64(cs.Hits))
	pr.set("pipeline.misses", float64(cs.Misses))
	if n := cs.Hits + cs.Misses; n > 0 {
		pr.set("pipeline.hit_ratio", float64(cs.Hits)/float64(n))
	}
	pr.set("pipeline.bytes_added", float64(cs.BytesAdded))
	pr.set("pipeline.bytes_deduped", float64(cs.BytesDeduped))
	pr.set("pipeline.evictions", float64(cs.Evictions))
	pr.set("cas.fallback_hits", float64(out.tier.FallbackHits))
	pr.set("cas.resident_bytes", float64(out.tier.BytesResident))
	pr.set("cas.remote_fetches", float64(cs.RemoteFetches))
	pr.set("cas.remote_bytes", float64(cs.RemoteBytes))
	if r := out.sweep.Sched; r != nil {
		pr.set("sched.tasks", float64(r.Tasks))
		pr.set("sched.steals", float64(r.Steals))
		pr.set("sched.speculations", float64(r.Speculations))
		pr.set("sched.spec_wins", float64(r.SpeculationWins))
		pr.set("sched.makespan_vs", r.Makespan)
	}
	// Aver over the op's merged results, timed on its own after the op.
	if out.aver != "" {
		id := pr.begin("aver.check", 0)
		if t, err := table.ParseCSV(string(out.results)); err == nil {
			_, _ = aver.NewEvaluator().CheckAll(out.aver, t)
		}
		pr.end(id, "aver.check_s")
	}
}

// runFsck reproduces `popper fsck` on a plain (unreplicated)
// repository: Store.Fsck, then one detect-only scrub pass over a
// freshly opened store. Anything but a clean verdict is an error.
func runFsck(dir string, pr *probe) error {
	root := pr.begin("op.fsck", 0)
	defer pr.end(root, "")
	if _, err := os.Stat(filepath.Join(dir, ".popper", "manifest")); err != nil {
		return err
	}
	id := pr.begin("store.fsck", root)
	rep, err := pr.openStore(dir).Fsck()
	pr.end(id, "store.fsck_s")
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("fsck: repository needs repair:\n%s", rep.Format())
	}
	id = pr.begin("scrub.pass", root)
	srep, err := scrub.New(pr.openStore(dir), scrub.Options{}).Scrub()
	pr.end(id, "scrub.pass_s")
	if err != nil {
		return err
	}
	pr.set("scrub.entries", float64(srep.Scanned))
	pr.set("scrub.bytes", float64(srep.Bytes))
	pr.set("scrub.findings", float64(len(srep.Findings)))
	if !srep.Clean() {
		return fmt.Errorf("scrub: %d finding(s)", len(srep.Findings))
	}
	return nil
}

// checkFsck is the post-op correctness check every writing op gets:
// the repository must verify clean against its manifest.
func checkFsck(dir string) error {
	rep, err := store.Open(dir).Fsck()
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("fsck after the op is not clean:\n%s", rep.Format())
	}
	return nil
}

// checkSweep asserts every configuration of the sweep passed.
func checkSweep(out runOutcome) error {
	if want := 16; len(out.sweep.Runs) != want {
		return fmt.Errorf("sweep ran %d configurations, want %d", len(out.sweep.Runs), want)
	}
	if !out.sweep.Passed() {
		return fmt.Errorf("sweep did not pass: %v", out.sweep.Err())
	}
	if len(out.results) == 0 {
		return fmt.Errorf("sweep produced no %s", resultsPath)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// poolRatio is the bytes under .popper/ over the bytes of live tracked
// content the committed manifest describes.
func poolRatio(dir string) (pool, live int64, err error) {
	man, err := store.Open(dir).Manifest()
	if err != nil {
		return 0, 0, err
	}
	if man == nil {
		return 0, 0, fmt.Errorf("%s has no committed manifest", dir)
	}
	for _, e := range man.Entries {
		live += e.Size
	}
	return treeBytes(filepath.Join(dir, ".popper")), live, nil
}
