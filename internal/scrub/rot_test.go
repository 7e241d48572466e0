package scrub

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"popper/internal/repl"
	"popper/internal/store"
)

// The rot matrix: every artifact class × seeded damage round, injected
// at rest underneath a replicated store, must be detected, healed from
// the highest-priority live source, and leave the primary's tree
// byte-identical to the uncorrupted run. `make rot` sweeps CHAOS_SEED
// over this file under -race.

// memGroup builds an N-replica group over deterministic in-memory
// stores, keeping each replica's MemFS for at-rest rot injection.
func memGroup(t *testing.T, n int, seed int64) (*repl.Group, []*store.MemFS) {
	t.Helper()
	fss := make([]*store.MemFS, n)
	g, err := repl.New(repl.Options{Replicas: n, Seed: seed}, func(id int) store.VFS {
		fss[id] = store.NewMemFS(seed + int64(id))
		return fss[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, fss
}

// buildGroup replays the canonical scenario through the replication
// log so every replica holds the same committed tree.
func buildGroup(t *testing.T, seed int64) (*repl.Group, []*store.MemFS) {
	t.Helper()
	g, fss := memGroup(t, 3, seed)
	for _, w := range []map[string][]byte{ws1(), ws2()} {
		if _, err := g.Sync(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Put("exp/journal.csv", journalPayload); err != nil {
		t.Fatal(err)
	}
	return g, fss
}

// wantConvergedGroup asserts every live replica's tree is
// byte-identical to the reference image.
func wantConvergedGroup(t *testing.T, g *repl.Group, ref map[string][]byte, when string) {
	t.Helper()
	for id := 0; id < g.Size(); id++ {
		if g.Down(id) {
			continue
		}
		wantSameImage(t, mustImage(t, g.Store(id)), ref, fmt.Sprintf("%s (replica %d)", when, id))
	}
}

// rotClasses are the artifact classes the rot matrix damages, each
// named by the Rot pattern that reaches it.
var rotClasses = []struct {
	name    string
	pattern string
}{
	{"workspace-packed", "exp/vars.yml"},
	{"workspace-loose", "exp/journal.csv"},
	{"loose-object", store.ObjectFile(sha256.Sum256(journalPayload))},
	{"extent", ".popper/extents/*"},
	{"manifest", store.ManifestFile},
}

func TestRotMatrixGroupHealsEveryArtifactClass(t *testing.T) {
	seed := chaosSeed(t)
	// Three rot rounds per class: the seeded damage coin walks through
	// single-bit flips, multi-bit scatters and truncations.
	for _, class := range rotClasses {
		for round := 1; round <= 3; round++ {
			t.Run(fmt.Sprintf("%s/round-%d", class.name, round), func(t *testing.T) {
				g, fss := buildGroup(t, seed)
				ref := mustImage(t, g.Store(0))

				hit := fss[0].Rot(class.pattern, round)
				if len(hit) == 0 {
					t.Fatalf("rot pattern %q touched nothing", class.pattern)
				}

				sc := New(nil, Options{Repair: true, Group: g})
				rep := mustScrub(t, sc)
				if rep.Healed == 0 {
					t.Fatalf("nothing healed:\n%s", rep.Format())
				}
				if rep.Unrepairable != 0 {
					t.Fatalf("healthy quorum left damage unrepairable:\n%s", rep.Format())
				}
				// A live quorum is the highest-priority rung: every heal must
				// name it, never a lower local rung.
				onlySource(t, rep, SourceReplica)
				wantConvergedGroup(t, g, ref, "after quorum heal")
				if rep2 := mustScrub(t, sc); !rep2.Clean() {
					t.Fatalf("second scrub not clean:\n%s", rep2.Format())
				}
			})
		}
	}
}

// TestScrubFindsNothingFsckMisses pins the detection contract: a scrub
// pass detects exactly what one fsck walk reports. For every artifact
// class and damage round, the sites a detect-only pass names are the
// paths fsck flags on the same damage — nothing more, nothing less.
func TestScrubFindsNothingFsckMisses(t *testing.T) {
	seed := chaosSeed(t)
	for _, class := range rotClasses {
		for round := 1; round <= 3; round++ {
			t.Run(fmt.Sprintf("%s/round-%d", class.name, round), func(t *testing.T) {
				st, fs := buildStore(t, seed)
				if hit := fs.Rot(class.pattern, round); len(hit) == 0 {
					t.Fatalf("rot pattern %q touched nothing", class.pattern)
				}
				rep := mustScrub(t, New(st, Options{}))
				var sites []string
				for _, f := range rep.Findings {
					sites = append(sites, f.Site)
				}
				frep, err := st.Fsck()
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				if frep.ManifestMissing || frep.ManifestDamaged {
					want = append(want, store.ManifestFile)
				}
				for _, f := range frep.Findings {
					want = append(want, f.Path)
				}
				slices.Sort(want)
				if len(want) == 0 {
					t.Fatalf("fsck saw no damage from rot on %q", class.pattern)
				}
				if !slices.Equal(sites, want) {
					t.Fatalf("scrub sites differ from fsck paths:\n scrub: %v\n  fsck: %v", sites, want)
				}
			})
		}
	}
}

// TestRotMatrixQuorumHoldsTheRot pins the degradation contract: when a
// majority of replicas hold rotted copies, their attestations fail
// digest checks, the quorum rung falls short, and repair drops to the
// next live rung instead of trusting the majority's garbage.
func TestRotMatrixQuorumHoldsTheRot(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := buildGroup(t, seed)
	ref := mustImage(t, g.Store(0))
	objPath := store.ObjectFile(sha256.Sum256(journalPayload))

	// The quorum holds the rot: replicas 1 and 2 rot their loose object,
	// replica 0 rots its workspace copy of the same content.
	for _, id := range []int{1, 2} {
		if got := fss[id].Rot(objPath, 1); len(got) != 1 {
			t.Fatalf("replica %d rot touched %v", id, got)
		}
	}
	if got := fss[0].Rot("exp/journal.csv", 1); len(got) != 1 {
		t.Fatalf("rot touched %v", got)
	}

	sc := New(nil, Options{Repair: true, Group: g})
	rep := mustScrub(t, sc)
	if rep.Unrepairable != 0 {
		t.Fatalf("degraded quorum left damage unrepairable:\n%s", rep.Format())
	}
	// The chain cascades deterministically, replica by replica:
	//   - replica 0's workspace file heals from its own intact loose
	//     object (SourceLoose) — the rotted quorum fell short and never
	//     vouched bytes;
	//   - replica 1's rotted loose object cannot reach a quorum either
	//     (only replica 0 attests) and reconstructs from its intact
	//     workspace copy (SourceReseal);
	//   - that heal restores the quorum, so replica 2 heals from the
	//     now-live quorum rung (SourceReplica).
	want := map[Source]int{SourceLoose: 1, SourceReseal: 1, SourceReplica: 1}
	for src, n := range want {
		if rep.BySource[src] != n {
			t.Fatalf("expected cascade %v, got %v:\n%s", want, rep.BySource, rep.Format())
		}
	}
	if rep.Healed != 3 {
		t.Fatalf("expected 3 heals, got %d:\n%s", rep.Healed, rep.Format())
	}
	wantConvergedGroup(t, g, ref, "after degraded heal")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// TestRotMatrixMultiSiteRot rots several artifact classes at once on
// the primary — tracked files, the packed extents — and the chain still
// converges byte-exactly in one pass.
func TestRotMatrixMultiSiteRot(t *testing.T) {
	seed := chaosSeed(t)
	g, fss := buildGroup(t, seed)
	ref := mustImage(t, g.Store(0))

	if hit := fss[0].Rot("exp/*", 2); len(hit) < 3 {
		t.Fatalf("workspace rot touched only %v", hit)
	}
	if hit := fss[0].Rot(".popper/extents/*", 2); len(hit) != 2 {
		t.Fatalf("extent rot touched %v", hit)
	}

	sc := New(nil, Options{Repair: true, Group: g})
	rep := mustScrub(t, sc)
	if rep.Unrepairable != 0 || rep.Healed == 0 {
		t.Fatalf("multi-site heal failed:\n%s", rep.Format())
	}
	wantConvergedGroup(t, g, ref, "after multi-site heal")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// TestRotExtentWithoutQuorumDegrades pins the documented single-store
// degradation: a rotted extent with no replica group to fetch the
// image from salvages record-by-record into loose objects. The packed
// layout is lost but every tracked byte survives, and the store
// converges.
func TestRotExtentWithoutQuorumDegrades(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	refTracked := trackedView(t, st)
	if hit := fs.Rot(".popper/extents/*", 1); len(hit) == 0 {
		t.Fatal("no extents to rot")
	}
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if rep.Unrepairable != 0 {
		t.Fatalf("extent rot with intact workspace should never quarantine:\n%s", rep.Format())
	}
	if got := trackedView(t, st); !sameView(got, refTracked) {
		t.Fatalf("tracked content changed across extent salvage:\n got %v\nwant %v", paths(got), paths(refTracked))
	}
	mustCleanFsck(t, st, "after extent salvage")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// TestRotManifestWithoutQuorumRebuilds pins the other documented
// degradation: a rotted manifest with no quorum to restore it is
// rebuilt by adopting the tree — content survives byte-exactly,
// generation history restarts.
func TestRotManifestWithoutQuorumRebuilds(t *testing.T) {
	st, fs := buildStore(t, chaosSeed(t))
	refTracked := trackedView(t, st)
	if hit := fs.Rot(store.ManifestFile, 1); len(hit) != 1 {
		t.Fatalf("rot touched %v", hit)
	}
	sc := New(st, Options{Repair: true})
	rep := mustScrub(t, sc)
	if rep.Unrepairable != 0 {
		t.Fatalf("manifest rot quarantined content:\n%s", rep.Format())
	}
	if got := trackedView(t, st); !sameView(got, refTracked) {
		t.Fatalf("tracked content changed across manifest rebuild:\n got %v\nwant %v", paths(got), paths(refTracked))
	}
	mustCleanFsck(t, st, "after manifest rebuild")
	if rep2 := mustScrub(t, sc); !rep2.Clean() {
		t.Fatalf("second scrub not clean:\n%s", rep2.Format())
	}
}

// trackedView reads the tracked (workspace) slice of a store's tree.
func trackedView(t *testing.T, st *store.Store) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for path, content := range mustImage(t, st) {
		if store.Tracked(path) {
			out[path] = content
		}
	}
	return out
}

func sameView(got, want map[string][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for p, c := range want {
		if !bytes.Equal(got[p], c) {
			return false
		}
	}
	return true
}
