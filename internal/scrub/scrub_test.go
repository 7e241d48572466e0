package scrub

import (
	"bytes"
	"crypto/sha256"
	"os"
	"strconv"
	"strings"
	"testing"

	"popper/internal/cas"
	"popper/internal/cluster"
	"popper/internal/fault"
	"popper/internal/gasnet"
	"popper/internal/metrics"
	"popper/internal/store"
)

// chaosSeed mirrors the repo-wide convention: `make rot` sweeps the
// seed matrix via CHAOS_SEED, plain `go test` stays deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEED")
	if raw == "" {
		return 42
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer", raw)
	}
	return seed
}

func ws1() map[string][]byte {
	return map[string][]byte{
		".popper.yml":  []byte("experiments:\n  - exp\n"),
		"exp/run.sh":   []byte("#!/bin/sh\necho run\n"),
		"exp/vars.yml": []byte("alpha: 1\n"),
	}
}

// ws2 grows the tree: small files pack into an extent, the large
// results file stays a loose object.
func ws2() map[string][]byte {
	return map[string][]byte{
		".popper.yml":     []byte("experiments:\n  - exp\n"),
		"exp/run.sh":      []byte("#!/bin/sh\necho run\n"),
		"exp/vars.yml":    []byte("alpha: 2\n"),
		"exp/results.csv": bytes.Repeat([]byte("metric,value\nthroughput,812\n"), 200), // ~5.6 KB: loose
	}
}

var journalPayload = []byte("config,status\n001,ok\n002,ok\n")

// buildStore runs the canonical scenario: two syncs (packing small
// objects into extents) plus an incremental Put (a loose object).
func buildStore(t *testing.T, seed int64) (*store.Store, *store.MemFS) {
	t.Helper()
	fs := store.NewMemFS(seed)
	st := store.New(fs)
	for _, w := range []map[string][]byte{ws1(), ws2()} {
		if _, err := st.Sync(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("exp/journal.csv", journalPayload); err != nil {
		t.Fatal(err)
	}
	return st, fs
}

func mustImage(t *testing.T, st *store.Store) map[string][]byte {
	t.Helper()
	img, err := st.Image()
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	return img
}

func wantSameImage(t *testing.T, got, want map[string][]byte, when string) {
	t.Helper()
	if len(got) != len(want) {
		gotPaths, wantPaths := paths(got), paths(want)
		t.Fatalf("%s: tree holds %d files, want %d\n got: %v\nwant: %v", when, len(got), len(want), gotPaths, wantPaths)
	}
	for path, content := range want {
		if !bytes.Equal(got[path], content) {
			t.Fatalf("%s: %s differs:\n got %q\nwant %q", when, path, got[path], content)
		}
	}
}

func paths(img map[string][]byte) []string {
	var out []string
	for p := range img {
		out = append(out, p)
	}
	return out
}

func mustScrub(t *testing.T, sc *Scrubber) *Report {
	t.Helper()
	rep, err := sc.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	return rep
}

func mustCleanFsck(t *testing.T, st *store.Store, when string) {
	t.Helper()
	rep, err := st.Fsck()
	if err != nil {
		t.Fatalf("fsck %s: %v", when, err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck %s not clean:\n%s", when, rep.Format())
	}
}

// onlySource asserts every healed finding in the report was served by
// the expected rung.
func onlySource(t *testing.T, rep *Report, want Source) {
	t.Helper()
	if rep.Healed == 0 {
		t.Fatalf("nothing healed:\n%s", rep.Format())
	}
	for _, f := range rep.Findings {
		if f.Healed && f.Source != want {
			t.Fatalf("finding healed from %s, want %s: %s", f.Source, want, f)
		}
	}
}

func TestScrubCleanPassHashesEveryEntry(t *testing.T) {
	st, _ := buildStore(t, chaosSeed(t))
	clock := fault.NewClock()
	sc := New(st, Options{Repair: true, Clock: clock})
	rep := mustScrub(t, sc)
	if !rep.Clean() {
		t.Fatalf("clean store reported findings:\n%s", rep.Format())
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != man.Generation {
		t.Fatalf("report generation %d, manifest %d", rep.Generation, man.Generation)
	}
	if rep.Scanned != man.Len() {
		t.Fatalf("scanned %d entries, manifest holds %d", rep.Scanned, man.Len())
	}
	// A clean pass hashes every entry's content exactly once.
	var want int64
	for _, e := range man.Entries {
		want += e.Size
	}
	if rep.Bytes <= 0 || rep.Bytes != want {
		t.Fatalf("hashed %d bytes, manifest entries hold %d", rep.Bytes, want)
	}
	// The pass charged the virtual clock at the modeled throughput.
	if clock.Now() <= 0 {
		t.Fatal("scrub did not charge the virtual clock")
	}
	tot := sc.Totals()
	if tot.Passes != 1 || tot.GBPerSec() <= 0 {
		t.Fatalf("totals: %+v", tot)
	}

	reg := metrics.NewRegistry(nil, nil)
	sc.Record(reg)
	for _, name := range []string{"scrub_passes", "scrub_entries_verified", "scrub_bytes_verified"} {
		if v := reg.Gauge(name); v <= 0 {
			t.Fatalf("gauge %s = %v", name, v)
		}
	}
}

// TestScrubLegacySidecarIsFsckDebris pins the upgrade path for
// repositories written when every commit also sealed a hash-tree
// sidecar: the leftover file is unrecognized store metadata, repair
// removes it without moving the generation, and the tree is then
// byte-identical to one that never had it.
func TestScrubLegacySidecarIsFsckDebris(t *testing.T) {
	const legacy = ".popper/merkle"
	st, fs := buildStore(t, chaosSeed(t))
	ref := mustImage(t, st)
	genBefore, err := st.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(legacy, []byte("legacy sealed hash tree")); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Path != legacy ||
		rep.Findings[0].State != store.StateDebris || rep.Findings[0].Note != "unrecognized store metadata" {
		t.Fatalf("legacy sidecar not reported as debris:\n%s", rep.Format())
	}
	acts, err := st.Repair(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 || acts[0].Verb != "removed" || acts[0].Path != legacy {
		t.Fatalf("repair actions %v, want one removal of %s", acts, legacy)
	}
	if gen, err := st.Generation(); err != nil || gen != genBefore {
		t.Fatalf("removing the sidecar moved the generation %d -> %d (%v)", genBefore, gen, err)
	}
	if _, err := fs.ReadFile(legacy); err == nil {
		t.Fatal("legacy sidecar survived repair")
	}
	wantSameImage(t, mustImage(t, st), ref, "after sidecar removal")
	mustCleanFsck(t, st, "after sidecar removal")
	if srep := mustScrub(t, New(st, Options{})); !srep.Clean() {
		t.Fatalf("detect-only scrub not clean:\n%s", srep.Format())
	}
}

func TestScrubDetectOnlyReportsWithoutMutating(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	if got := fs.Rot("exp/vars.yml", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	before := mustImage(t, st)

	sc := New(st, Options{Repair: false})
	rep := mustScrub(t, sc)
	if rep.Clean() {
		t.Fatal("detection pass missed the rot")
	}
	hit := false
	for _, f := range rep.Findings {
		if f.Site == "exp/vars.yml" {
			hit = true
			if f.Healed || f.Unrepairable {
				t.Fatalf("detection-only finding mutated state: %s", f)
			}
		}
	}
	if !hit {
		t.Fatalf("rot not localized:\n%s", rep.Format())
	}
	// The damaged tree is untouched.
	wantSameImage(t, mustImage(t, st), before, "after detection-only scrub")
	rep2 := mustScrub(t, sc)
	if rep2.Clean() {
		t.Fatal("second detection pass lost the finding")
	}
}

func TestScrubHealsFromLocalRungs(t *testing.T) {
	seed := chaosSeed(t)
	cases := []struct {
		name string
		site string
		want Source
	}{
		// vars.yml is small: its bytes live packed in an extent.
		{"packed-backed file", "exp/vars.yml", SourceExtent},
		// journal.csv arrived via Put: its object is loose.
		{"loose-backed file", "exp/journal.csv", SourceLoose},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, fs := buildStore(t, seed)
			ref := mustImage(t, st)
			if got := fs.Rot(tc.site, 1); len(got) != 1 {
				t.Fatalf("rot touched %v", got)
			}
			sc := New(st, Options{Repair: true})
			rep := mustScrub(t, sc)
			if rep.Healed == 0 || rep.Unrepairable != 0 {
				t.Fatalf("heal failed:\n%s", rep.Format())
			}
			onlySource(t, rep, tc.want)
			wantSameImage(t, mustImage(t, st), ref, "after heal")
			mustCleanFsck(t, st, "after heal")
			if rep2 := mustScrub(t, sc); !rep2.Clean() {
				t.Fatalf("second scrub not clean:\n%s", rep2.Format())
			}
		})
	}
}

func TestScrubHealsRottedLooseObjectInPlace(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	ref := mustImage(t, st)
	objPath := store.ObjectFile(sha256.Sum256(journalPayload))
	if got := fs.Rot(objPath, 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	// No replica, tier or peer holds the bytes — but the intact
	// workspace copy proves them: deterministic reconstruction.
	onlySource(t, rep, SourceReseal)
	wantSameImage(t, mustImage(t, st), ref, "after object heal")
	mustCleanFsck(t, st, "after object heal")
}

func TestScrubHealsFromCasTier(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	ref := mustImage(t, st)
	tier := cas.NewTier(cas.Options{})
	tier.Put(journalPayload)

	// Rot both the workspace copy and its loose object: every local
	// store rung is dead, the tier is the highest live one.
	hash := sha256.Sum256(journalPayload)
	if got := fs.Rot("exp/journal.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	if got := fs.Rot(store.ObjectFile(hash), 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}

	sc := New(st, Options{Repair: true, Tier: tier})
	rep := mustScrub(t, sc)
	onlySource(t, rep, SourceExtent)
	wantSameImage(t, mustImage(t, st), ref, "after tier heal")
	mustCleanFsck(t, st, "after tier heal")
}

// testFederation builds a 2-host federation whose peer (host 1) serves
// the journal payload under its content hash — the convention the
// scrubber's peer rung resolves against.
func testFederation(t *testing.T) *cas.Federation {
	t.Helper()
	c := cluster.New(21)
	nodes, err := c.Provision("cloudlab-c220g1", 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gasnet.New(nodes, cluster.NewNetwork(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachAll(4 << 20); err != nil {
		t.Fatal(err)
	}
	profiles := []*cluster.MachineProfile{nodes[0].Profile(), nodes[1].Profile()}
	tier := cas.NewTier(cas.Options{})
	fed, err := cas.NewFederation(tier, w, profiles)
	if err != nil {
		t.Fatal(err)
	}
	refs := tier.PutChunked(journalPayload)
	if err := fed.Publish(1, sha256.Sum256(journalPayload), refs); err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestScrubHealsFromFederationPeer(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	ref := mustImage(t, st)
	fed := testFederation(t)

	hash := sha256.Sum256(journalPayload)
	if got := fs.Rot("exp/journal.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	if got := fs.Rot(store.ObjectFile(hash), 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}

	sc := New(st, Options{Repair: true, Fed: fed, Host: 0})
	rep := mustScrub(t, sc)
	onlySource(t, rep, SourcePeer)
	wantSameImage(t, mustImage(t, st), ref, "after peer heal")
	mustCleanFsck(t, st, "after peer heal")
}

func TestScrubQuarantinesTheUnrepairable(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	hash := sha256.Sum256(journalPayload)
	if got := fs.Rot("exp/journal.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}
	if err := fs.Remove(store.ObjectFile(hash)); err != nil {
		t.Fatal(err)
	}

	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if rep.Unrepairable == 0 {
		t.Fatalf("unprovable damage not reported:\n%s", rep.Format())
	}
	var unrep *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Site == "exp/journal.csv" {
			unrep = &rep.Findings[i]
		}
	}
	if unrep == nil || !unrep.Unrepairable || unrep.Healed {
		t.Fatalf("journal finding wrong: %+v\n%s", unrep, rep.Format())
	}

	// Never guessed at: the damaged bytes are preserved in quarantine,
	// the entry is dropped, and the tree converges — a second scrub is
	// clean.
	img := mustImage(t, st)
	if _, still := img["exp/journal.csv"]; still {
		t.Fatal("unrepairable file still tracked in the workspace")
	}
	quarantined := false
	for p := range img {
		if strings.HasPrefix(p, store.QuarantinePrefix) && strings.HasSuffix(p, "exp/journal.csv") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("damaged bytes not preserved in quarantine: %v", paths(img))
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := man.Lookup("exp/journal.csv"); ok {
		t.Fatal("manifest still records the quarantined entry")
	}
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
	mustCleanFsck(t, st, "after quarantine")
}

// TestScrubDetectsTransientReadRot pins the read-side fault site: rot
// injected at disk/read/* poisons one read, fsck's hash walk catches
// the mismatch, and the heal converges on the (undamaged) at-rest
// bytes.
func TestScrubDetectsTransientReadRot(t *testing.T) {
	seed := chaosSeed(t)
	st, _ := buildStore(t, seed)
	ref := mustImage(t, st)
	st.SetFaults(fault.NewInjector(seed, []fault.Rule{{
		Site: "disk/read/exp/vars.yml", Kind: fault.CorruptDisk, Times: 1, Prob: 1,
	}}))
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if rep.Clean() {
		t.Fatal("transient read rot went undetected")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Site == "exp/vars.yml" && f.Healed {
			found = true
		}
	}
	if !found {
		t.Fatalf("read rot not healed:\n%s", rep.Format())
	}
	wantSameImage(t, mustImage(t, st), ref, "after transient read rot")
	mustCleanFsck(t, st, "after transient read rot")
}

// TestScrubConcurrentWithSyncs runs detection passes while a writer
// commits generations — the race detector guards the locking, and the
// generation fence guards against phantom findings from in-flight
// trees.
func TestScrubConcurrentWithSyncs(t *testing.T) {
	st, _ := buildStore(t, chaosSeed(t))
	sc := New(st, Options{Repair: false})
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 20 && err == nil; i++ {
			if i%2 == 0 {
				_, err = st.Sync(ws1())
			} else {
				_, err = st.Sync(ws2())
			}
		}
		done <- err
	}()
	for i := 0; i < 10; i++ {
		rep, err := sc.Scrub()
		if err != nil {
			t.Fatalf("scrub during syncs: %v", err)
		}
		for _, f := range rep.Findings {
			t.Errorf("phantom finding during concurrent syncs: %s", f)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	mustCleanFsck(t, st, "after concurrent scrub+sync")
}
