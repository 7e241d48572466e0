package scrub

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"popper/internal/fault"
	"popper/internal/store"
)

// benchWorkspace builds a deterministic n-file workspace mixing
// packable (≤ 4 KiB) and loose-sized payloads, so a scrub pass walks
// both object pools and the packed extents.
func benchWorkspace(n int) map[string][]byte {
	w := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		size := 512 + (i%8)*2048 // 512 B .. ~15 KiB, crossing the pack threshold
		body := make([]byte, size)
		for j := range body {
			body[j] = byte(i + j*7)
		}
		w[fmt.Sprintf("exp/data-%03d.bin", i)] = body
	}
	return w
}

// scrubBenchRecord is one BENCH_scrub.json entry.
type scrubBenchRecord struct {
	NsPerOp      float64        `json:"ns_per_op"`
	GBPerSecVirt float64        `json:"gb_per_sec_virtual,omitempty"`
	Entries      int            `json:"entries_verified,omitempty"`
	Bytes        int64          `json:"bytes_verified,omitempty"`
	Findings     int            `json:"findings,omitempty"`
	Healed       int            `json:"healed,omitempty"`
	Unrepairable int            `json:"unrepairable,omitempty"`
	HealedBy     map[string]int `json:"healed_by_source,omitempty"`
}

func bySourceNames(rep *Report) map[string]int {
	if len(rep.BySource) == 0 {
		return nil
	}
	out := make(map[string]int, len(rep.BySource))
	for src, n := range rep.BySource {
		out[src.String()] = n
	}
	return out
}

// TestWriteScrubBenchJSON records the scrubber's perf trajectory: when
// BENCH_JSON names an output file (`make bench-json`), it measures
// clean-tree verification throughput in virtual GB/s (bytes charged to
// the fault clock at the configured scan rate) with the entries and
// bytes it hashed, and a group heal pass's findings-by-source
// breakdown. BENCH_SMOKE=1 (wired
// into `make verify`) shrinks the tree so regressions in the scrub
// path fail the full loop without a long run.
func TestWriteScrubBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to record scrub benchmarks")
	}
	smoke := os.Getenv("BENCH_SMOKE") != ""
	files := 256
	if smoke {
		files = 24
	}
	records := make(map[string]scrubBenchRecord)

	// Clean-tree scrub: detect-only walk of a synced store.
	fs := store.NewMemFS(11)
	st := store.New(fs)
	if _, err := st.Sync(benchWorkspace(files)); err != nil {
		t.Fatal(err)
	}
	clock := fault.NewClock()
	sc := New(st, Options{Clock: clock})
	start := time.Now()
	rep, err := sc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("bench store is not clean:\n%s", rep.Format())
	}
	records["BenchmarkScrubCleanTree"] = scrubBenchRecord{
		NsPerOp:      float64(time.Since(start).Nanoseconds()),
		GBPerSecVirt: sc.Totals().GBPerSec(),
		Entries:      rep.Scanned,
		Bytes:        rep.Bytes,
	}

	// Group heal: rot a slice of the primary's tree at rest, then time a
	// repair pass healing everything from the quorum.
	g, fss := memGroup(t, 3, 11)
	if _, err := g.Sync(benchWorkspace(files)); err != nil {
		t.Fatal(err)
	}
	gsc := New(nil, Options{Repair: true, Group: g, Clock: fault.NewClock()})
	rot := files / 8
	for i := 0; i < rot; i++ {
		path := fmt.Sprintf("exp/data-%03d.bin", i*8)
		if hit := fss[0].Rot(path, 1); len(hit) != 1 {
			t.Fatalf("rot touched %v", hit)
		}
	}
	start = time.Now()
	hrep, err := gsc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	records["BenchmarkScrubGroupHeal"] = scrubBenchRecord{
		NsPerOp:      float64(time.Since(start).Nanoseconds()),
		GBPerSecVirt: gsc.Totals().GBPerSec(),
		Entries:      hrep.Scanned,
		Bytes:        hrep.Bytes,
		Findings:     len(hrep.Findings),
		Healed:       hrep.Healed,
		Unrepairable: hrep.Unrepairable,
		HealedBy:     bySourceNames(hrep),
	}
	if hrep.Healed < rot || hrep.Unrepairable != 0 {
		t.Errorf("group heal bench: %d healed (want >= %d), %d unrepairable:\n%s", hrep.Healed, rot, hrep.Unrepairable, hrep.Format())
	}

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), out)
}
