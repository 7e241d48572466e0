package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"

	"popper/internal/cas"
)

// State classifies one fsck finding.
type State uint8

const (
	// StateTorn: the file is a strict prefix of its manifested content —
	// the signature of a write interrupted by a crash.
	StateTorn State = iota + 1
	// StateCorrupted: the file exists but its bytes are neither the
	// manifested content nor a prefix of it.
	StateCorrupted
	// StateMissing: the manifest records the file but it is gone.
	StateMissing
	// StateExtra: the file is tracked-shaped but no manifest generation
	// records it (for example, written by a crashed sync that never
	// committed, or placed by hand).
	StateExtra
	// StateDebris: store-internal leftovers — in-flight temp files,
	// unreferenced or damaged cache objects, a stale intent record.
	StateDebris
)

func (st State) String() string {
	switch st {
	case StateTorn:
		return "torn"
	case StateCorrupted:
		return "corrupted"
	case StateMissing:
		return "missing"
	case StateExtra:
		return "extra"
	case StateDebris:
		return "debris"
	}
	return "unknown"
}

// Finding is one verified deviation between the committed manifest and
// the tree.
type Finding struct {
	Path  string
	State State
	// Size is the file's on-disk size; WantSize the manifested size
	// (where each applies).
	Size     int64
	WantSize int64
	// Repairable: the object cache holds the manifested bytes, so
	// --repair restores the file exactly.
	Repairable bool
	Note       string
}

// Report is the result of one fsck pass.
type Report struct {
	Generation int   // committed manifest generation (0 when none)
	Tracked    int   // files the committed manifest records
	Bytes      int64 // content bytes pass 1 read and hashed
	// Pending: an intent record (.popper/manifest.next) survives — the
	// last sync never committed.
	Pending bool
	// ManifestMissing / ManifestDamaged describe the committed manifest
	// itself; repair rebuilds it by adopting the tree.
	ManifestMissing bool
	ManifestDamaged bool
	Findings        []Finding
}

// Clean reports whether the repository needs no repair at all.
func (r *Report) Clean() bool {
	return len(r.Findings) == 0 && !r.Pending && !r.ManifestMissing && !r.ManifestDamaged
}

// Counts returns how many findings carry each state, keyed by the
// state's name.
func (r *Report) Counts() map[string]int {
	out := make(map[string]int)
	for _, f := range r.Findings {
		out[f.State.String()]++
	}
	return out
}

// Format renders the report the way `popper fsck` prints it.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck: manifest generation %d, %d tracked file(s)\n", r.Generation, r.Tracked)
	if r.ManifestMissing {
		b.WriteString("fsck: manifest missing (legacy or damaged repository)\n")
	}
	if r.ManifestDamaged {
		b.WriteString("fsck: manifest damaged (checksum or format error)\n")
	}
	if r.Pending {
		b.WriteString("fsck: interrupted sync: intent record .popper/manifest.next present\n")
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %-9s %s", f.State, f.Path)
		switch f.State {
		case StateTorn:
			if f.WantSize > 0 { // a torn extent has no single manifested size
				fmt.Fprintf(&b, " (%d of %d bytes)", f.Size, f.WantSize)
			}
		case StateCorrupted:
			fmt.Fprintf(&b, " (%d bytes, want %d)", f.Size, f.WantSize)
		case StateMissing:
			fmt.Fprintf(&b, " (want %d bytes)", f.WantSize)
		}
		if f.Note != "" {
			fmt.Fprintf(&b, " — %s", f.Note)
		}
		if f.State == StateTorn || f.State == StateCorrupted || f.State == StateMissing {
			if f.Repairable {
				b.WriteString(" [restorable]")
			} else {
				b.WriteString(" [no object: will quarantine]")
			}
		}
		b.WriteByte('\n')
	}
	if r.Clean() {
		b.WriteString("fsck: clean — every tracked file matches the manifest\n")
	} else {
		fmt.Fprintf(&b, "fsck: %d finding(s)\n", len(r.Findings))
	}
	return b.String()
}

// Fsck verifies the tree against the committed manifest and classifies
// every deviation. It never writes.
func (s *Store) Fsck() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	s.invalidateExtents() // trust nothing cached: the tree may have mutated underneath
	rep := &Report{}

	man := s.readManifestLoose(manifestPath, rep)
	if man != nil {
		rep.Generation = man.Generation
		rep.Tracked = man.Len()
	}
	var next *Manifest
	if raw, err := s.read(manifestNextPath); err == nil {
		rep.Pending = true
		next, _ = ParseManifest(raw) // a torn intent record is expected debris
	}

	paths, err := s.fs.List()
	if err != nil {
		return nil, err
	}

	// Pass 1: every manifested file, against its recorded hash.
	if man != nil {
		for _, e := range man.Entries {
			content, err := s.read(e.Path)
			if errors.Is(err, fs.ErrNotExist) {
				rep.Findings = append(rep.Findings, Finding{
					Path: e.Path, State: StateMissing, WantSize: e.Size,
					Repairable: s.objectOK(e),
				})
				continue
			}
			if err != nil {
				return nil, err
			}
			rep.Bytes += int64(len(content))
			if sha256.Sum256(content) == e.Hash {
				continue
			}
			f := Finding{Path: e.Path, Size: int64(len(content)), WantSize: e.Size, Repairable: s.objectOK(e)}
			if s.isTorn(e, content) {
				f.State = StateTorn
			} else {
				f.State = StateCorrupted
			}
			if next != nil {
				if ne, ok := next.Lookup(e.Path); ok && ne.Hash == sha256.Sum256(content) {
					f.Note = "matches the interrupted sync's intent"
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}

	// Pass 2: everything on disk the manifest does not explain.
	refs := referencedObjects(man, next)
	hashRefs := referencedHashes(man, next)
	for _, path := range paths {
		switch {
		case strings.HasSuffix(path, tmpSuffix):
			rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "in-flight temp file"})
		case path == manifestPath || path == manifestNextPath:
			// Reported via Generation / Pending, not as findings.
		case strings.HasPrefix(path, quarantineDir+"/"):
			// Quarantined files are deliberately preserved; never re-flagged.
		case strings.HasPrefix(path, objectsDir+"/"):
			if note := s.objectProblem(path, refs); note != "" {
				rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: note})
			}
		case strings.HasPrefix(path, extentsDir+"/"):
			if f, bad := s.extentFinding(path, hashRefs); bad {
				rep.Findings = append(rep.Findings, f)
			}
		case path == CacheStatePath:
			// The stage-cache sidecar is advisory and self-verifying; an
			// intact extent image is healthy, anything else is debris whose
			// removal costs only a cold cache.
			raw, err := s.read(path)
			if err != nil {
				if s.dead != nil {
					return nil, s.dead
				}
				rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "unreadable stage-cache sidecar"})
				break
			}
			if _, perr := cas.ParseExtent(raw); perr != nil {
				rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "damaged stage-cache sidecar (cold start after removal)"})
			}
		case strings.HasPrefix(path, popperDir+"/"):
			rep.Findings = append(rep.Findings, Finding{Path: path, State: StateDebris, Note: "unrecognized store metadata"})
		case Tracked(path):
			if man != nil {
				if _, ok := man.Lookup(path); ok {
					continue // verified in pass 1
				}
			}
			size, _ := s.fs.Stat(path)
			f := Finding{Path: path, State: StateExtra, Size: size}
			if next != nil {
				if ne, ok := next.Lookup(path); ok {
					content, err := s.read(path)
					if err == nil && sha256.Sum256(content) == ne.Hash {
						f.Note = "written by the interrupted sync"
					}
				}
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool { return rep.Findings[i].Path < rep.Findings[j].Path })
	return rep, nil
}

// readManifestLoose parses a manifest file, folding absence/damage into
// the report instead of failing.
func (s *Store) readManifestLoose(path string, rep *Report) *Manifest {
	raw, err := s.read(path)
	if errors.Is(err, fs.ErrNotExist) {
		rep.ManifestMissing = true
		return nil
	}
	if err != nil {
		rep.ManifestDamaged = true
		return nil
	}
	man, perr := ParseManifest(raw)
	if perr != nil {
		rep.ManifestDamaged = true
		return nil
	}
	return man
}

// isTorn reports whether content is a strict prefix of the manifested
// bytes (verified against the cache object — loose or packed — when
// available, else by size alone).
func (s *Store) isTorn(e Entry, content []byte) bool {
	if int64(len(content)) >= e.Size {
		return false
	}
	obj, ok := s.readObjectAny(e.Hash)
	if !ok {
		return true // object unavailable: short content is presumed torn
	}
	return bytes.HasPrefix(obj, content)
}

// objectOK reports whether the cache — loose objects or packed extents
// — holds the entry's exact bytes.
func (s *Store) objectOK(e Entry) bool {
	_, ok := s.readObjectAny(e.Hash)
	return ok
}

// extentFinding classifies one packed extent; bad=false means healthy
// (intact, with at least one record a live generation references).
func (s *Store) extentFinding(path string, hashRefs map[[sha256.Size]byte]bool) (Finding, bool) {
	raw, err := s.read(path)
	if err != nil {
		return Finding{Path: path, State: StateDebris, Note: "unreadable extent"}, true
	}
	recs, perr := cas.ParseExtent(raw)
	if perr != nil {
		if !cas.IsExtent(raw) {
			return Finding{Path: path, State: StateDebris, Note: "not an extent (damaged beyond the magic)"}, true
		}
		salvageable := 0
		for _, r := range cas.SalvageExtent(raw) {
			if hashRefs[r.Hash] {
				salvageable++
			}
		}
		return Finding{
			Path: path, State: StateTorn, Size: int64(len(raw)),
			Repairable: true,
			Note:       fmt.Sprintf("torn extent: %d referenced record(s) salvageable", salvageable),
		}, true
	}
	if anyRecordReferenced(recs, hashRefs) {
		return Finding{}, false // live records pin the whole extent
	}
	return Finding{Path: path, State: StateDebris, Note: "unreferenced extent"}, true
}

// referencedHashes collects every content hash either manifest pins.
func referencedHashes(mans ...*Manifest) map[[sha256.Size]byte]bool {
	refs := make(map[[sha256.Size]byte]bool)
	for _, m := range mans {
		if m == nil {
			continue
		}
		for _, e := range m.Entries {
			refs[e.Hash] = true
		}
	}
	return refs
}

// objectProblem classifies a cache object path; empty means healthy.
func (s *Store) objectProblem(path string, refs map[string]bool) string {
	base := path[strings.LastIndexByte(path, '/')+1:]
	want, err := hex.DecodeString(base)
	if err != nil || len(want) != sha256.Size {
		return "malformed object name"
	}
	content, rerr := s.read(path)
	if rerr != nil {
		return "unreadable object"
	}
	sum := sha256.Sum256(content)
	if !bytes.Equal(sum[:], want) {
		return "object content does not match its name"
	}
	if !refs[path] {
		return "unreferenced object"
	}
	return ""
}

// referencedObjects collects every object path either manifest pins.
func referencedObjects(mans ...*Manifest) map[string]bool {
	refs := make(map[string]bool)
	for _, m := range mans {
		if m == nil {
			continue
		}
		for _, e := range m.Entries {
			refs[objectPath(e.Hash)] = true
		}
	}
	return refs
}

// Action is one step Repair took.
type Action struct {
	Verb string // restored | adopted | quarantined | removed | salvaged | rolled-back | rebuilt
	Path string
	Note string
}

func (a Action) String() string {
	if a.Note != "" {
		return fmt.Sprintf("%-11s %s — %s", a.Verb, a.Path, a.Note)
	}
	return fmt.Sprintf("%-11s %s", a.Verb, a.Path)
}

// Repair fixes everything a Report describes and commits a new
// manifest generation describing the healed tree:
//
//   - torn/corrupted/missing files whose bytes the object cache can
//     prove are restored exactly;
//   - unprovable damaged files are quarantined under
//     .popper/quarantine/gen-<N>/ (never silently deleted);
//   - extra files are adopted into the manifest — they may be
//     legitimate user edits the store has simply not recorded yet;
//   - a torn extent is salvaged record by record: every payload whose
//     embedded digest still verifies and whose hash a live generation
//     references becomes a loose object, then the damaged extent is
//     removed (extents sort before workspace paths, so restorations
//     can draw on the salvage);
//   - debris (temp files, stale or damaged objects, unreferenced
//     extents) is removed;
//   - a surviving intent record is rolled back: the committed manifest
//     remains the truth, and the next `popper -resume run` re-derives
//     the interrupted work.
//
// Repair uses the same atomic write protocol as Sync, so a crash
// mid-repair leaves a tree a second fsck+repair still converges on.
func (s *Store) Repair(rep *Report) ([]Action, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	// Repair of a clean report is a no-op: the second of two
	// back-to-back repairs must not move the generation or touch the
	// tree — repair itself has to converge.
	if rep.Clean() {
		return nil, nil
	}
	var acts []Action
	s.invalidateExtents() // trust nothing cached: the tree may have mutated underneath
	man := s.readManifestLoose(manifestPath, &Report{})
	gen := 1
	entries := make(map[string]Entry)
	refHash := make(map[[sha256.Size]byte]bool)
	if man != nil {
		gen = man.Generation + 1
		for _, e := range man.Entries {
			entries[e.Path] = e
			refHash[e.Hash] = true
		}
	}

	for _, f := range rep.Findings {
		switch f.State {
		case StateTorn, StateCorrupted, StateMissing:
			// A torn extent has no manifest entry of its own: salvage every
			// record its embedded digests still prove, so the restorations
			// below (findings sort after .popper/) can draw on them.
			if strings.HasPrefix(f.Path, extentsDir+"/") {
				n, err := s.salvageExtent(f.Path, refHash)
				if err != nil {
					return acts, err
				}
				acts = append(acts, Action{Verb: "salvaged", Path: f.Path, Note: fmt.Sprintf("%d referenced record(s) recovered to loose objects", n)})
				continue
			}
			e, ok := entries[f.Path]
			if !ok {
				continue
			}
			if obj, ok := s.readObjectAny(e.Hash); ok {
				if err := s.writeFileAtomic(f.Path, obj); err != nil {
					return acts, err
				}
				acts = append(acts, Action{Verb: "restored", Path: f.Path, Note: fmt.Sprintf("%d bytes from object cache", len(obj))})
				continue
			}
			delete(entries, f.Path)
			if f.State == StateMissing {
				continue
			}
			qp := quarantineDir + "/gen-" + strconv.Itoa(gen) + "/" + f.Path
			if err := s.rename(f.Path, qp); err != nil {
				return acts, err
			}
			if err := s.syncDir(parentDir(qp)); err != nil {
				return acts, err
			}
			if err := s.syncDir(parentDir(f.Path)); err != nil {
				return acts, err
			}
			acts = append(acts, Action{Verb: "quarantined", Path: f.Path, Note: "no object to restore from; kept at " + qp})
		case StateExtra:
			content, err := s.read(f.Path)
			if err != nil {
				if s.dead != nil {
					return acts, s.dead
				}
				continue // vanished since the scan
			}
			e := Entry{Path: f.Path, Size: int64(len(content)), Hash: sha256.Sum256(content)}
			if _, err := s.ensureObject(e.Hash, content); err != nil {
				return acts, err
			}
			entries[f.Path] = e
			acts = append(acts, Action{Verb: "adopted", Path: f.Path, Note: "tracked into the new manifest generation"})
		case StateDebris:
			if strings.HasPrefix(f.Path, extentsDir+"/") {
				s.invalidateExtents()
			}
			if err := s.remove(f.Path); err != nil {
				return acts, err
			}
			acts = append(acts, Action{Verb: "removed", Path: f.Path, Note: f.Note})
		}
	}

	if rep.Pending {
		if err := s.remove(manifestNextPath); err != nil {
			return acts, err
		}
		if err := s.syncDir(popperDir); err != nil {
			return acts, err
		}
		acts = append(acts, Action{Verb: "rolled-back", Path: manifestNextPath, Note: "uncommitted sync intent discarded"})
	}

	if rep.ManifestMissing || rep.ManifestDamaged {
		// Rebuild by adopting the whole tracked tree.
		paths, err := s.fs.List()
		if err != nil {
			return acts, err
		}
		for _, path := range paths {
			if !Tracked(path) {
				continue
			}
			if _, ok := entries[path]; ok {
				continue
			}
			content, err := s.read(path)
			if err != nil {
				return acts, err
			}
			e := Entry{Path: path, Size: int64(len(content)), Hash: sha256.Sum256(content)}
			if _, err := s.ensureObject(e.Hash, content); err != nil {
				return acts, err
			}
			entries[path] = e
			acts = append(acts, Action{Verb: "adopted", Path: path, Note: "manifest rebuilt from tree"})
		}
	}

	// A repair that did not change what the manifest records — file
	// restores, debris removal, extent salvage, intent rollback — keeps
	// the committed generation: the healed tree is byte-identical to
	// the pre-damage one, which is what lets scrub heal one replica of
	// a group without diverging it from its peers. Only entry surgery
	// (quarantine, adoption) or a lost manifest commits a new one.
	if man != nil && sameEntries(man, entries) {
		if err := s.gc(man); err != nil {
			return acts, err
		}
		return acts, nil
	}
	next := &Manifest{Generation: gen}
	for _, e := range entries {
		next.Entries = append(next.Entries, e)
	}
	sortEntries(next)
	if err := s.writeFileAtomic(manifestPath, next.Encode()); err != nil {
		return acts, err
	}
	s.man, s.got = next, true
	acts = append(acts, Action{Verb: "rebuilt", Path: manifestPath, Note: fmt.Sprintf("generation %d, %d file(s)", gen, next.Len())})
	if err := s.gc(next); err != nil {
		return acts, err
	}
	return acts, nil
}

// sameEntries reports whether the surviving entry map records exactly
// the manifest's entries.
func sameEntries(man *Manifest, entries map[string]Entry) bool {
	if len(entries) != man.Len() {
		return false
	}
	for _, e := range man.Entries {
		if got, ok := entries[e.Path]; !ok || got != e {
			return false
		}
	}
	return true
}
