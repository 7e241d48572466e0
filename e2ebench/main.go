// Command e2ebench is the end-to-end benchmark for `popper run` and
// `popper fsck`. It runs in a single process, closed-loop: one op at a
// time, the next op starting when the previous one (and its
// correctness check) finished. Each op reproduces, through public
// functions only, the calls cmd/popper makes for
//
//	sweep-cold   popper -hosts 4 run gfs   on a fresh repository
//	rerun-warm   popper -hosts 4 run gfs   after a one-line paper edit, cache warm
//	repo-verify  popper fsck               on the rerun-warm starting repository
//
// and times every call from outside the program. Inputs are generated
// from --seed; the program only sees the generated repository.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it measures untraced ops, then traced ops (spans around each layer
// call, a counting store VFS, the pipeline/cas/sched counters) and, for
// a sweep that executed stages, a serial replay of the executor
// substrate, and reports the per-layer metrics. The last line of
// standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, see run.sh):
//
//	e2ebench --workload sweep-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	// warm workloads start from a repository that tracks the dataset
	// tree and already ran the sweep once; cold ones get a fresh
	// repository for every op.
	warm bool
	op   func(b *bench, dir string, pr *probe) error
}

var workloads = map[string]workloadDef{
	"sweep-cold":  {warm: false, op: (*bench).opSweepCold},
	"rerun-warm":  {warm: true, op: (*bench).opRerunWarm},
	"repo-verify": {warm: true, op: (*bench).opRepoVerify},
}

// warmSetups is how many starting repositories a warm workload builds
// and times per untraced run (a traced run builds one); setup_s is
// their median. A cold workload builds one right before each op, plus
// coldExtraSetups more after it: each takes milliseconds of
// fsync-bound work, so the median needs many samples to be steady.
const (
	warmSetups      = 3
	coldExtraSetups = 2
)

// minOps is the fewest ops a measuring phase takes, however long they
// run.
const minOps = 3

type bench struct {
	name    string
	def     workloadDef
	in      *inputs
	workdir string // persistent benchmark state (digests, records)
	runDir  string // this run's repositories
	repos   int

	setups    []float64
	untraced  []sample
	traced    []sample
	layers    []map[string]float64
	attempted int
	failed    int
	failures  []string

	// results.csv the seed's sweep must reproduce on every op.
	results []byte
	// op is the current op's sample, nil until its timed call ran.
	op *sample
	// pool and live are the .popper/ and tracked-content byte counts
	// after the latest op.
	pool, live int64
	// lastDir is the repository the latest op ran on.
	lastDir string
}

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-cold, rerun-warm or repo-verify")
	seed := fs.Int64("seed", 1, "workload seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "seconds of ops to measure")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for repositories, records and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	def, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	b := &bench{name: *name, def: def, in: newInputs(*seed, def.warm)}
	res, err := b.run(*workdir, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) run(workdir string, d time.Duration, traced bool) (*result, error) {
	abs, err := filepath.Abs(workdir)
	if err != nil {
		return nil, err
	}
	b.workdir = abs
	b.runDir = filepath.Join(abs, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	for _, sub := range []string{"digests", "records"} {
		if err := os.MkdirAll(filepath.Join(abs, sub), 0o755); err != nil {
			return nil, err
		}
	}

	ticks := readCPUTicks()
	// Warm workloads run every op on the first repository they build.
	var dir string
	if b.def.warm {
		n := warmSetups
		if traced {
			n = 1
		}
		var dirs []string
		for i := 0; i < n; i++ {
			d, err := b.setup()
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			dirs = append(dirs, d)
		}
		dir = dirs[0]
		for _, d := range dirs[1:] {
			os.RemoveAll(d)
		}
	}

	var tr *tracer
	var rep *replayStats
	if !traced {
		b.untraced = b.loop(dir, d, nil)
	} else {
		b.untraced = b.loop(dir, d/2, nil)
		tr = newTracer()
		b.traced = b.loop(dir, d/2, tr)
		if b.needsReplay() {
			rs, err := b.replay()
			if err != nil {
				return nil, fmt.Errorf("executor replay: %w", err)
			}
			rep = &rs
		}
	}
	steal := stealPct(ticks, readCPUTicks())

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if !traced {
		b.endToEnd(res)
	} else {
		b.perLayer(res, rep, steal)
	}
	rec := b.record(res, rep, steal, traced)
	b.report(rec)
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.name, b.in.seed, btoi(traced))
	if err := writeJSON(filepath.Join(abs, "records", name), rec); err != nil {
		return nil, err
	}
	if tr != nil {
		spans := filepath.Join(abs, "records", fmt.Sprintf("%s-seed%d.spans.json", b.name, b.in.seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", spans)
	}
	return res, nil
}

// loop runs ops back to back for d (and at least minOps of them) and
// returns the samples of the ops that got as far as the timed call. A
// traced loop gives every op a probe on tr.
func (b *bench) loop(dir string, d time.Duration, tr *tracer) []sample {
	var out []sample
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < d; n++ {
		b.attempted++
		op := b.attempted
		var pr *probe
		if tr != nil {
			pr = newProbe(tr, op)
		}
		b.op = nil
		if err := b.def.op(b, dir, pr); err != nil {
			b.failed++
			b.failures = append(b.failures, fmt.Sprintf("op %d: %v", op, err))
		}
		if b.op != nil {
			out = append(out, *b.op)
		}
		if pr != nil {
			b.layers = append(b.layers, pr.finish())
		}
	}
	return out
}

// timed measures one call into the program as the op's sample, after
// collecting the previous op's garbage outside the timing.
func (b *bench) timed(fn func() error) error {
	runtime.GC()
	m := startMeter()
	err := fn()
	s := m.stop()
	b.op = &s
	return err
}

// setup builds one starting repository and times it. Warm workloads
// also prime it: the dataset tree is tracked and the sweep ran once.
func (b *bench) setup() (string, error) {
	b.repos++
	dir := filepath.Join(b.runDir, fmt.Sprintf("repo-%03d", b.repos))
	runtime.GC()
	start := time.Now()
	err := setupRepo(dir, b.in)
	var out runOutcome
	if err == nil && b.def.warm {
		out, err = runSweep(dir, nil)
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	if err == nil && b.def.warm {
		err = b.checkCold(dir, out)
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// checkCold checks a sweep that executed every stage: all configs
// passed, results.csv is the seed's, and the repository verifies.
func (b *bench) checkCold(dir string, out runOutcome) error {
	if err := checkSweep(out); err != nil {
		return err
	}
	if err := b.checkResults(out.results); err != nil {
		return err
	}
	return checkFsck(dir)
}

// checkResults asserts results.csv is byte-identical across every op
// of this run and every run of this seed, whichever workload produced
// it (the digest of the first one is kept under workdir/digests).
func (b *bench) checkResults(got []byte) error {
	if b.results == nil {
		path := filepath.Join(b.workdir, "digests", fmt.Sprintf("gfs-seed%d.sha256", b.in.seed))
		want, err := os.ReadFile(path)
		switch {
		case err == nil && strings.TrimSpace(string(want)) != digest(got):
			return fmt.Errorf("results.csv digest %s differs from this seed's earlier runs (%s)", digest(got), strings.TrimSpace(string(want)))
		case err != nil:
			tmp := path + fmt.Sprintf(".%d", os.Getpid())
			if err := os.WriteFile(tmp, []byte(digest(got)+"\n"), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, path); err != nil {
				return err
			}
		}
		b.results = got
		return nil
	}
	if !bytes.Equal(got, b.results) {
		return fmt.Errorf("results.csv digest %s differs from the run's first op (%s)", digest(got), digest(b.results))
	}
	return nil
}

// opSweepCold: `popper -hosts 4 run gfs` on a freshly set-up repository
// with no cache.extent.
func (b *bench) opSweepCold(_ string, pr *probe) error {
	// Used repositories stay until the run ends, so removing one never
	// overlaps the next op or set-up.
	dir, err := b.setup()
	if err != nil {
		return err
	}
	var out runOutcome
	err = b.timed(func() (err error) {
		out, err = runSweep(dir, pr)
		return err
	})
	recordRun(pr, out)
	b.afterOp(pr, dir)
	if err == nil {
		err = b.checkCold(dir, out)
	}
	for i := 0; i < coldExtraSetups; i++ {
		if _, serr := b.setup(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// opRerunWarm: append one line to the paper, then `popper -hosts 4 run
// gfs` again; every stage must replay from the cache.
func (b *bench) opRerunWarm(dir string, pr *probe) error {
	f, err := os.OpenFile(filepath.Join(dir, filepath.FromSlash(paperPath)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%% note %d\n", b.attempted)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var out runOutcome
	err = b.timed(func() (err error) {
		out, err = runSweep(dir, pr)
		return err
	})
	recordRun(pr, out)
	b.afterOp(pr, dir)
	if err != nil {
		return err
	}
	if err := checkSweep(out); err != nil {
		return err
	}
	if out.cache.Misses != 0 {
		return fmt.Errorf("warm rerun missed the stage cache %d times (%d hits)", out.cache.Misses, out.cache.Hits)
	}
	if !bytes.Equal(out.results, b.results) {
		return fmt.Errorf("warm rerun changed results.csv")
	}
	return checkFsck(dir)
}

// opRepoVerify: `popper fsck` on the clean rerun-warm starting repository.
func (b *bench) opRepoVerify(dir string, pr *probe) error {
	err := b.timed(func() error { return runFsck(dir, pr) })
	b.afterOp(pr, dir)
	return err
}

// afterOp records the repository an op left behind: its pool and live
// byte counts, into the probe when traced and always as the run's
// latest value.
func (b *bench) afterOp(pr *probe, dir string) {
	b.lastDir = dir
	pool, live, err := poolRatio(dir)
	if err != nil {
		return
	}
	pr.set("store.pool_bytes", float64(pool))
	pr.set("store.live_bytes", float64(live))
	b.pool, b.live = pool, live
}

func (b *bench) needsReplay() bool {
	for _, m := range b.layers {
		if m["pipeline.misses"] > 0 {
			return true
		}
	}
	return false
}

// replay runs the executor replay over the latest op's repository,
// after collecting the ops' garbage.
func (b *bench) replay() (replayStats, error) {
	runtime.GC()
	return replayExecutor(b.lastDir)
}

func wallOf(s []sample) []float64 { return pluck(s, func(x sample) float64 { return x.Wall }) }
func cpuOf(s []sample) []float64  { return pluck(s, func(x sample) float64 { return x.CPU }) }
func allocOf(s []sample) []float64 {
	return pluck(s, func(x sample) float64 { return x.Alloc })
}

func pluck(s []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

// endToEnd fills the metrics a user of `popper` sees, all measured with
// tracing off.
func (b *bench) endToEnd(res *result) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(b.setups))
	set("op_s", "s", median(wallOf(b.untraced)))
	set("cpu_s_per_op", "s", median(cpuOf(b.untraced)))
	set("alloc_mb_per_op", "MB", median(allocOf(b.untraced)))
	ratio := 0.0
	if b.live > 0 {
		ratio = float64(b.pool) / float64(b.live)
	}
	set("pool_bytes_per_live_byte", "ratio", ratio)
}

// layerMetrics lists every per-layer metric with its unit, in report
// order. Layers a workload does not exercise report 0.
var layerMetrics = [][2]string{
	{"store.load_s", "s"}, {"store.sync_s", "s"}, {"store.sync_written", "count"},
	{"store.sync_objects", "count"}, {"store.put_s", "s"}, {"store.put_calls", "count"},
	{"store.fsck_s", "s"}, {"store.pool_bytes", "B"}, {"store.live_bytes", "B"},
	{"vfs.reads", "count"}, {"vfs.read_bytes", "B"}, {"vfs.read_s", "s"},
	{"vfs.writes", "count"}, {"vfs.write_bytes", "B"}, {"vfs.fsyncs", "count"},
	{"vfs.fsync_s", "s"}, {"vfs.renames", "count"}, {"vfs.lists", "count"}, {"vfs.list_s", "s"},
	{"pipeline.restore_s", "s"}, {"pipeline.save_s", "s"}, {"pipeline.hits", "count"},
	{"pipeline.misses", "count"}, {"pipeline.hit_ratio", "ratio"}, {"pipeline.warm_entries", "count"},
	{"pipeline.bytes_added", "B"}, {"pipeline.bytes_deduped", "B"}, {"pipeline.evictions", "count"},
	{"cas.fallback_calls", "count"}, {"cas.fallback_s", "s"}, {"cas.fallback_hits", "count"},
	{"cas.resident_bytes", "B"}, {"cas.remote_fetches", "count"}, {"cas.remote_bytes", "B"},
	{"core.load_s", "s"}, {"core.sweep_s", "s"}, {"core.sweep_cpu_s", "s"},
	{"sched.tasks", "count"}, {"sched.steals", "count"}, {"sched.speculations", "count"},
	{"sched.spec_wins", "count"}, {"sched.makespan_vs", "vs"},
	{"gasnet.attach_s", "s"}, {"gassyfs.mount_s", "s"}, {"workload.generate_s", "s"},
	{"workload.generate_alloc_mb", "MB"}, {"workload.compile_s", "s"},
	{"workload.compile_alloc_mb", "MB"}, {"core.sweep_uncovered_cpu_s", "s"},
	{"aver.check_s", "s"},
	{"scrub.pass_s", "s"}, {"scrub.entries", "count"}, {"scrub.bytes", "B"}, {"scrub.findings", "count"},
	{"host.steal_pct", "%"}, {"host.nproc", "count"}, {"host.gomaxprocs", "count"},
	{"trace.overhead_pct", "%"},
}

// perLayer fills the per-layer metrics: the median over traced ops of
// each layer's value, the executor replay, and the environment.
func (b *bench) perLayer(res *result, rep *replayStats, steal float64) {
	vals := map[string]float64{}
	for _, lm := range layerMetrics {
		var xs []float64
		for _, m := range b.layers {
			xs = append(xs, m[lm[0]])
		}
		vals[lm[0]] = median(xs)
	}
	if rep != nil {
		vals["gasnet.attach_s"] = rep.AttachCPU
		vals["gassyfs.mount_s"] = rep.MountCPU
		vals["workload.generate_s"] = rep.GenCPU
		vals["workload.generate_alloc_mb"] = rep.GenAlloc
		vals["workload.compile_s"] = rep.CompCPU
		vals["workload.compile_alloc_mb"] = rep.CompAlloc
		vals["core.sweep_uncovered_cpu_s"] = vals["core.sweep_cpu_s"] - (rep.AttachCPU + rep.MountCPU + rep.GenCPU + rep.CompCPU)
	} else {
		vals["core.sweep_uncovered_cpu_s"] = vals["core.sweep_cpu_s"]
	}
	vals["host.steal_pct"] = steal
	vals["host.nproc"] = float64(runtime.NumCPU())
	vals["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if base := median(wallOf(b.untraced)); base > 0 {
		vals["trace.overhead_pct"] = 100 * (median(wallOf(b.traced)) - base) / base
	}
	for _, lm := range layerMetrics {
		res.Metrics[lm[0]] = metric{Value: vals[lm[0]], Unit: lm[1]}
	}
}

// runRecord is the noise record every run keeps: the environment, each
// op's raw samples with their quartiles, failures and model outputs.
type runRecord struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Traced      bool                  `json:"traced"`
	GoVersion   string                `json:"go_version"`
	NProc       int                   `json:"nproc"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	StealPct    float64               `json:"host_steal_pct"`
	Setup       []float64             `json:"setup_s"`
	UntracedOps []sample              `json:"untraced_ops"`
	TracedOps   []sample              `json:"traced_ops,omitempty"`
	Quartiles   map[string][3]float64 `json:"quartiles"`
	Digest      string                `json:"results_sha256,omitempty"`
	Failures    []string              `json:"failures,omitempty"`
	Replay      *replayStats          `json:"executor_replay,omitempty"`
	// ModelOutputs are computed by the virtual cost model, never
	// measured; they never stand in for time.
	ModelOutputs map[string]float64 `json:"model_outputs,omitempty"`
	Result       *result            `json:"result"`
}

func (b *bench) record(res *result, rep *replayStats, steal float64, traced bool) *runRecord {
	rec := &runRecord{
		Workload: b.name, Seed: b.in.seed, Traced: traced,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		StealPct: steal, Setup: b.setups, UntracedOps: b.untraced, TracedOps: b.traced,
		Quartiles: map[string][3]float64{
			"setup_s":           quartiles(b.setups),
			"untraced.wall_s":   quartiles(wallOf(b.untraced)),
			"untraced.cpu_s":    quartiles(cpuOf(b.untraced)),
			"untraced.alloc_mb": quartiles(allocOf(b.untraced)),
		},
		Failures: b.failures, Replay: rep, Result: res,
	}
	if traced {
		rec.Quartiles["traced.wall_s"] = quartiles(wallOf(b.traced))
		rec.Quartiles["traced.cpu_s"] = quartiles(cpuOf(b.traced))
		rec.Quartiles["traced.alloc_mb"] = quartiles(allocOf(b.traced))
		if m, ok := res.Metrics["sched.makespan_vs"]; ok && m.Value > 0 {
			rec.ModelOutputs = map[string]float64{
				"sched.makespan_vs":      m.Value,
				"sched.configs_per_vsec": res.Metrics["sched.tasks"].Value / m.Value,
			}
		}
	}
	if b.results != nil {
		rec.Digest = digest(b.results)
	}
	return rec
}

// report prints the human summary and the noise record ahead of the
// result line.
func (b *bench) report(rec *runRecord) {
	fmt.Printf("e2ebench %s seed=%d traced=%v: %d ops, %d failed, %s, GOMAXPROCS=%d, nproc=%d, steal %.1f%%\n",
		rec.Workload, rec.Seed, rec.Traced, b.attempted, b.failed, rec.GoVersion, rec.GOMAXPROCS, rec.NProc, rec.StealPct)
	for _, f := range b.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		label := ""
		if n == "sched.makespan_vs" {
			label = "  (model output, virtual seconds)"
		}
		fmt.Printf("  %-28s %14.6g %s%s\n", n, m.Value, m.Unit, label)
	}
	if rec.ModelOutputs != nil {
		fmt.Printf("  model output: %.1f configs per virtual second\n", rec.ModelOutputs["sched.configs_per_vsec"])
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		fmt.Printf("record: %s\n", raw)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
