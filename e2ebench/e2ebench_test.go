package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"popper/internal/core"
	"popper/internal/store"
)

// The cold sweep the benchmark drives (-hosts 4, default jobs, stage
// cache backed by the object pool) must produce the same results.csv
// as a serial run with no cache.
func TestColdDigestMatchesSerialNoCache(t *testing.T) {
	in := newInputs(7, false)
	dir := filepath.Join(t.TempDir(), "bench")
	if err := setupRepo(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := runSweep(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(out); err != nil {
		t.Fatal(err)
	}
	if err := checkFsck(dir); err != nil {
		t.Fatal(err)
	}

	ref := filepath.Join(t.TempDir(), "serial")
	if err := setupRepo(ref, in); err != nil {
		t.Fatal(err)
	}
	files, err := store.Open(ref).Load()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Load(files)
	if err != nil {
		t.Fatal(err)
	}
	configs, err := core.ParseSweep(in.sweepYML)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := p.RunSweep(expName, &core.Env{Seed: 1}, configs, core.SweepOptions{Jobs: 1})
	if err != nil || !sr.Passed() {
		t.Fatalf("serial sweep: %v %v", err, sr.Err())
	}
	if got, want := digest(out.results), digest(p.Files[resultsPath]); got != want {
		t.Fatalf("benchmarked sweep results.csv %s, serial no-cache %s", got, want)
	}
}

// The names the benchmark reports are exactly those BENCHMARK.json
// declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var layer []string
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	var want []string
	for _, lm := range layerMetrics {
		want = append(want, lm[0]+" "+lm[1])
	}
	sort.Strings(layer)
	sort.Strings(want)
	if !slices.Equal(layer, want) {
		t.Errorf("per_layer %v, benchmark reports %v", layer, want)
	}
	res := &result{Metrics: map[string]metric{}}
	(&bench{}).endToEnd(res)
	var e2e []string
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s) is not reported as such: %+v", m.Name, m.Unit, got)
		}
		e2e = append(e2e, m.Name)
	}
	if len(e2e) != len(res.Metrics) {
		t.Errorf("end_to_end %v, benchmark reports %d metrics", e2e, len(res.Metrics))
	}
	for _, w := range spec.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// A short traced rerun-warm run reports every per-layer metric, replays
// every stage from the cache and passes its checks.
func TestTracedRerunWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and primes a repository")
	}
	b := &bench{name: "rerun-warm", def: workloads["rerun-warm"], in: newInputs(3, true)}
	res, err := b.run(t.TempDir(), time.Nanosecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*minOps {
		t.Fatalf("result %+v, failures %v", res, b.failures)
	}
	for _, lm := range layerMetrics {
		if _, ok := res.Metrics[lm[0]]; !ok {
			t.Errorf("missing per-layer metric %s", lm[0])
		}
	}
	if m := res.Metrics["pipeline.misses"].Value; m != 0 {
		t.Errorf("warm rerun missed %v stages", m)
	}
	if h := res.Metrics["pipeline.hits"].Value; h != 48 {
		t.Errorf("warm rerun hit %v stages, want 48", h)
	}
}

// A short traced sweep-cold run replays the executor, and the replayed
// layers plus the uncovered remainder account for the sweep's CPU.
func TestTracedSweepColdReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cold sweeps and the executor replay")
	}
	b := &bench{name: "sweep-cold", def: workloads["sweep-cold"], in: newInputs(5, false)}
	res, err := b.run(t.TempDir(), time.Nanosecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v, failures %v", res, b.failures)
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	if v("workload.generate_s") <= 0 || v("workload.compile_s") <= 0 {
		t.Fatalf("executor replay did not run: %+v", res.Metrics)
	}
	sum := v("gasnet.attach_s") + v("gassyfs.mount_s") + v("workload.generate_s") +
		v("workload.compile_s") + v("core.sweep_uncovered_cpu_s")
	if math.Abs(sum-v("core.sweep_cpu_s")) > 1e-9 {
		t.Fatalf("replayed layers + uncovered = %v, core.sweep_cpu_s = %v", sum, v("core.sweep_cpu_s"))
	}
	if v("pipeline.misses") != 36 || v("sched.tasks") != 16 {
		t.Fatalf("cold sweep: %v misses, %v tasks; want 36 and 16", v("pipeline.misses"), v("sched.tasks"))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q := quartiles(xs)
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if math.Abs(q[i]-want) > 1e-12 {
			t.Fatalf("quartiles %v, want [2.75 5.5 8.25]", q)
		}
	}
}
