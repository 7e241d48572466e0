package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"

	"popper/internal/cas"
	"popper/internal/fault"
)

// Store is the crash-consistent artifact store over one repository
// root. All mutating operations hold the store lock, so the disk-site
// fault stream is serial and a global crash-disk rule enumerates the
// sync path deterministically. Safe for concurrent use.
type Store struct {
	fs     VFS
	mu     sync.Mutex
	faults *fault.Injector
	// dead is set when a terminal disk fault fired: the "machine" is
	// down and every further operation refuses with the same fault.
	dead error
	man  *Manifest // cached committed manifest
	got  bool      // manifest cache populated
	// extents is the lazily-built index over packed extents
	// (hash → payload); nil means rebuild on next object lookup.
	extents map[[sha256.Size]byte][]byte
}

// Open returns a store over a real directory tree.
func Open(dir string) *Store { return New(NewDirFS(dir)) }

// New returns a store over any VFS.
func New(v VFS) *Store { return &Store{fs: v} }

// SetFaults arms the deterministic disk-fault injector: every
// write/rename/fsync/remove boundary becomes a site named
// "disk/<op>/<path>". Error faults fail the operation (the sync aborts
// uncommitted); crash-disk faults tear the in-flight write, settle
// unsynced state (on a crash-capable VFS) and stop the store.
func (s *Store) SetFaults(inj *fault.Injector) {
	s.mu.Lock()
	s.faults = inj
	s.mu.Unlock()
}

// SyncStats describes what one Sync did.
type SyncStats struct {
	// Clean means the workspace already matched the committed manifest:
	// nothing was written, the generation did not move.
	Clean      bool
	Generation int
	Written    int // workspace files (re)written
	Pruned     int // stale files removed by the manifest diff
	Objects    int // new cache objects stored
}

// RecoveryError reports a repository whose previous sync never
// committed (an intent record is still present): the tree may hold a
// mix of generations and must be repaired before new writes.
type RecoveryError struct{ Op string }

func (e *RecoveryError) Error() string {
	return fmt.Sprintf("store: %s refused: an interrupted sync left %s behind; run `popper fsck --repair` first", e.Op, manifestNextPath)
}

// Load reads the tracked workspace from disk into a flat path map —
// the inverse of Sync. Reads go through the instrumented disk/read/*
// sites, so injected rot reaches consumers exactly the way latent
// media corruption would.
func (s *Store) Load() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	paths, err := s.fs.List()
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(paths))
	for _, path := range paths {
		if !Tracked(path) {
			continue
		}
		content, err := s.read(path)
		if err != nil {
			return nil, fmt.Errorf("store: load %s: %w", path, err)
		}
		files[path] = content
	}
	return files, nil
}

// Sync makes the on-disk tree match the workspace, atomically and
// durably. The protocol is two-phase: the next manifest is written
// first as an intent record (.popper/manifest.next), then every
// changed file is stored in the object cache and written atomically
// (temp → fsync → rename → dir fsync), stale files are pruned by the
// manifest diff, and finally the intent record is renamed over the
// committed manifest — the single commit point. A crash anywhere
// leaves either the old committed generation (plus repairable debris)
// or the new one; `popper fsck --repair` restores the invariant.
//
// The clean path — workspace already matching the committed manifest —
// performs no writes and no allocations.
func (s *Store) Sync(files map[string][]byte) (SyncStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats SyncStats
	if s.dead != nil {
		return stats, s.dead
	}
	man, err := s.loadManifest()
	if err != nil {
		return stats, err
	}
	if man != nil {
		stats.Generation = man.Generation
		tracked, clean := 0, true
		for path, content := range files {
			if !Tracked(path) {
				continue
			}
			tracked++
			if !man.Matches(path, content) {
				clean = false
				break
			}
		}
		if clean && tracked == man.Len() {
			stats.Clean = true
			return stats, nil
		}
	}
	if err := s.refuseIfInterrupted("sync"); err != nil {
		return stats, err
	}

	gen := 1
	if man != nil {
		gen = man.Generation + 1
	}
	next := NewManifest(gen, files)
	stats.Generation = gen

	// Phase 1: intent. After this record is durable, fsck knows exactly
	// what the sync was about to do.
	if err := s.writeFileAtomic(manifestNextPath, next.Encode()); err != nil {
		return stats, err
	}
	// Phase 2a: pack the generation's new small objects into one
	// append-only extent — a single durable write instead of one
	// atomic-write cycle per tiny artifact.
	var packed [][]byte
	packSeen := make(map[[sha256.Size]byte]bool)
	for _, e := range next.Entries {
		content := files[e.Path]
		if man != nil && man.Matches(e.Path, content) {
			continue
		}
		if int64(len(content)) > smallObjectMax || packSeen[e.Hash] || s.hasObject(e.Hash) {
			continue
		}
		packSeen[e.Hash] = true
		packed = append(packed, content)
	}
	if len(packed) > 0 {
		s.invalidateExtents()
		if err := s.writeFileAtomic(extentPath(gen), cas.EncodeExtent(packed)); err != nil {
			return stats, err
		}
		stats.Objects += len(packed)
	}
	// Phase 2b: remaining objects and workspace files, in path order.
	for _, e := range next.Entries {
		content := files[e.Path]
		if man != nil && man.Matches(e.Path, content) {
			continue
		}
		added, err := s.ensureObject(e.Hash, content)
		if err != nil {
			return stats, err
		}
		if added {
			stats.Objects++
		}
		if err := s.writeFileAtomic(e.Path, content); err != nil {
			return stats, err
		}
		stats.Written++
	}
	// Phase 3: the manifest diff prunes files that left the workspace.
	// Each removal is made namespace-durable before the commit point —
	// otherwise a crash after commit could resurrect a pruned file,
	// which repair would then (wrongly) adopt into the new generation.
	if man != nil {
		for _, e := range man.Entries {
			if _, ok := next.Lookup(e.Path); ok {
				continue
			}
			if err := s.remove(e.Path); err != nil {
				return stats, err
			}
			if err := s.syncDir(parentDir(e.Path)); err != nil {
				return stats, err
			}
			stats.Pruned++
		}
	}
	// Phase 4: commit.
	if err := s.commitManifest(next); err != nil {
		return stats, err
	}
	// Post-commit: drop cache objects no generation references anymore.
	return stats, s.gc(next)
}

// Put durably writes one artifact now, mid-command: object, atomic
// file write and a committed manifest update, so a crash a moment
// later still finds it recorded. The sweep journal rides this path —
// each completed configuration is recoverable even if the process
// never reaches its final sync.
func (s *Store) Put(path string, data []byte) error {
	if !Tracked(path) {
		return fmt.Errorf("store: put %s: path is not tracked", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	man, err := s.loadManifest()
	if err != nil {
		return err
	}
	if man != nil && man.Matches(path, data) {
		return nil
	}
	if err := s.refuseIfInterrupted("put"); err != nil {
		return err
	}
	gen := 1
	var entries []Entry
	var replaced *Entry
	if man != nil {
		gen = man.Generation + 1
		entries = make([]Entry, 0, man.Len()+1)
		for i := range man.Entries {
			if man.Entries[i].Path == path {
				e := man.Entries[i]
				replaced = &e
				continue
			}
			entries = append(entries, man.Entries[i])
		}
	}
	e := Entry{Path: path, Size: int64(len(data)), Hash: sha256.Sum256(data)}
	next := &Manifest{Generation: gen, Entries: append(entries, e)}
	sortEntries(next)
	if err := s.writeFileAtomic(manifestNextPath, next.Encode()); err != nil {
		return err
	}
	if _, err := s.ensureObject(e.Hash, data); err != nil {
		return err
	}
	if err := s.writeFileAtomic(path, data); err != nil {
		return err
	}
	if err := s.commitManifest(next); err != nil {
		return err
	}
	// Post-commit: the replaced content's object is garbage unless some
	// other entry shares it.
	if replaced != nil && !referencesHash(next, replaced.Hash) {
		if err := s.remove(objectPath(replaced.Hash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Manifest returns the committed manifest (nil when none exists).
func (s *Store) Manifest() (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadManifest()
}

// loadManifest reads and caches the committed manifest; callers hold
// the lock.
func (s *Store) loadManifest() (*Manifest, error) {
	if s.got {
		return s.man, nil
	}
	raw, err := s.read(manifestPath)
	if errors.Is(err, fs.ErrNotExist) {
		s.got = true
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	man, err := ParseManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%w; run `popper fsck --repair`", err)
	}
	s.man, s.got = man, true
	return man, nil
}

// refuseIfInterrupted blocks writes while an uncommitted intent record
// exists; callers hold the lock.
func (s *Store) refuseIfInterrupted(op string) error {
	if _, err := s.fs.Stat(manifestNextPath); err == nil {
		return &RecoveryError{Op: op}
	}
	return nil
}

// commitManifest renames the intent record over the committed manifest
// — the sync's single atomic commit point — and makes it durable.
func (s *Store) commitManifest(next *Manifest) error {
	if err := s.rename(manifestNextPath, manifestPath); err != nil {
		return err
	}
	if err := s.syncDir(popperDir); err != nil {
		return err
	}
	s.man, s.got = next, true
	return nil
}

// writeFileAtomic is the durable write primitive: temp file → fsync →
// rename over the target → parent directory fsync.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	tmp := path + tmpSuffix
	if err := s.write(tmp, data); err != nil {
		return err
	}
	if err := s.sync(tmp); err != nil {
		return err
	}
	if err := s.rename(tmp, path); err != nil {
		return err
	}
	return s.syncDir(parentDir(path))
}

// ensureObject stores content in the object cache unless it is already
// there — loose or packed in an extent; reports whether a new loose
// object was written.
func (s *Store) ensureObject(hash [sha256.Size]byte, content []byte) (bool, error) {
	if s.hasObject(hash) {
		return false, nil
	}
	return true, s.writeFileAtomic(objectPath(hash), content)
}

// gc removes cache objects no live manifest generation references;
// callers hold the lock. Runs strictly post-commit. "Live" means the
// committed manifest plus any surviving parseable intent record — an
// object either one references must never be evicted. Loose objects
// are removed individually; an extent is removed only when every
// record in it is unreferenced (a partially-live extent stays whole —
// bounded slack traded for never rewriting committed bytes).
func (s *Store) gc(man *Manifest) error {
	live := []*Manifest{man}
	if raw, err := s.read(manifestNextPath); err == nil {
		if next, perr := ParseManifest(raw); perr == nil {
			live = append(live, next)
		}
	} else if s.dead != nil {
		return s.dead
	}
	refs := make(map[string]bool, man.Len())
	hashRefs := make(map[[sha256.Size]byte]bool, man.Len())
	for _, m := range live {
		for _, e := range m.Entries {
			refs[objectPath(e.Hash)] = true
			hashRefs[e.Hash] = true
		}
	}
	paths, err := s.fs.List()
	if err != nil {
		return err
	}
	for _, path := range paths {
		switch {
		case strings.HasPrefix(path, objectsDir+"/"):
			if refs[path] {
				continue
			}
			if err := s.remove(path); err != nil {
				return err
			}
		case strings.HasPrefix(path, extentsDir+"/"):
			raw, err := s.read(path)
			if err != nil {
				// An unreadable extent is fsck's problem — but a terminal
				// fault at the read boundary must not be swallowed, or a
				// crash scheduled at this point would silently vanish.
				if s.dead != nil {
					return s.dead
				}
				continue
			}
			// Damaged extents are fsck's to salvage, never gc's to drop.
			recs, perr := cas.ParseExtent(raw)
			if perr != nil || anyRecordReferenced(recs, hashRefs) {
				continue
			}
			s.invalidateExtents()
			if err := s.remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- fault-instrumented VFS operations -------------------------------
//
// Every disk boundary consults the injector at site "disk/<op>/<path>"
// before acting. The no-fault path is a nil check. A crash-disk fault
// tears the in-flight write (a seeded prefix reaches the disk),
// settles unsynced state if the VFS models power loss, and marks the
// store dead; an error fault fails just this operation, leaving the
// sync uncommitted but the machine alive.

func (s *Store) write(path string, data []byte) error {
	if err := s.checkSite("write", path, data); err != nil {
		return err
	}
	return s.fs.WriteFile(path, data)
}

func (s *Store) sync(path string) error {
	if err := s.checkSite("fsync", path, nil); err != nil {
		return err
	}
	return s.fs.Sync(path)
}

func (s *Store) syncDir(dir string) error {
	if err := s.checkSite("syncdir", dir, nil); err != nil {
		return err
	}
	return s.fs.SyncDir(dir)
}

func (s *Store) rename(oldPath, newPath string) error {
	if err := s.checkSite("rename", newPath, nil); err != nil {
		return err
	}
	return s.fs.Rename(oldPath, newPath)
}

func (s *Store) remove(path string) error {
	if err := s.checkSite("remove", path, nil); err != nil {
		return err
	}
	if err := s.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func (s *Store) checkSite(op, path string, data []byte) error {
	if s.dead != nil {
		return s.dead
	}
	if s.faults == nil {
		return nil
	}
	f := s.faults.Check("disk/" + op + "/" + path)
	if f == nil {
		return nil
	}
	switch f.Kind {
	case fault.Latency:
		return nil // disks have no virtual clock to charge; treat as absorbed
	case fault.DiskCrash:
		// Power loss mid-operation: a seeded prefix of an in-flight
		// write reaches the media, then the machine is gone.
		if op == "write" && len(data) > 0 {
			n := int(fault.Hash01(s.faults.Seed(), "disk-tear/"+path, f.Occurrence) * float64(len(data)))
			_ = s.fs.WriteFile(path, data[:n])
		}
		if c, ok := s.fs.(crasher); ok {
			c.Crash()
		}
		s.dead = f
		return f
	case fault.Crash:
		// The process is killed but the OS survives: in-flight state
		// stays in the page cache and will drain, so no settle — the
		// store just stops.
		s.dead = f
		return f
	case fault.CorruptDisk:
		// Silent rot strikes reads (s.read) and at-rest state
		// (MemFS.Rot); at a write/fsync/rename boundary the supplied
		// bytes are still good, so the operation proceeds untouched.
		return nil
	default:
		return f
	}
}

// read is the instrumented read primitive: site "disk/read/<path>".
// Error faults fail the read, terminal faults stop the store exactly
// as at write boundaries — and corrupt-disk faults succeed while
// handing the caller seeded-rotted bytes. No error surfaces for rot:
// catching it is the scrubber's job, not the reader's.
func (s *Store) read(path string) ([]byte, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	if s.faults != nil {
		if f := s.faults.Check("disk/read/" + path); f != nil {
			switch f.Kind {
			case fault.Latency:
				// absorbed: disks have no virtual clock to charge
			case fault.CorruptDisk:
				data, err := s.fs.ReadFile(path)
				if err != nil {
					return nil, err
				}
				rot, _ := fault.CorruptBytes(s.faults.Seed(), "disk-rot/"+path, f.Occurrence, data)
				return rot, nil
			case fault.DiskCrash:
				if c, ok := s.fs.(crasher); ok {
					c.Crash()
				}
				s.dead = f
				return nil, f
			case fault.Crash:
				s.dead = f
				return nil, f
			default:
				return nil, f
			}
		}
	}
	return s.fs.ReadFile(path)
}

// sortEntries re-sorts and re-indexes a manifest after entry surgery.
func sortEntries(m *Manifest) {
	for i := 1; i < len(m.Entries); i++ {
		for j := i; j > 0 && m.Entries[j].Path < m.Entries[j-1].Path; j-- {
			m.Entries[j], m.Entries[j-1] = m.Entries[j-1], m.Entries[j]
		}
	}
	m.index()
}

// referencesHash reports whether any manifest entry carries the hash.
func referencesHash(m *Manifest, hash [sha256.Size]byte) bool {
	for _, e := range m.Entries {
		if e.Hash == hash {
			return true
		}
	}
	return false
}
