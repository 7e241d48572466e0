package store

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// Exported layout names the scrubber addresses store artifacts by.
const (
	// ManifestFile is the committed manifest's path.
	ManifestFile = manifestPath
	// ExtentsPrefix prefixes every packed extent's path.
	ExtentsPrefix = extentsDir + "/"
	// ObjectsPrefix prefixes every loose object's path.
	ObjectsPrefix = objectsDir + "/"
	// QuarantinePrefix prefixes everything repair quarantined.
	QuarantinePrefix = quarantineDir + "/"
)

// ObjectFile returns the loose-object path for a content hash.
func ObjectFile(hash [sha256.Size]byte) string { return objectPath(hash) }

// --- scrub support surface -------------------------------------------
//
// The scrubber heals through a prioritized chain of sources, each
// digest-verified. These accessors expose the store's rungs — loose
// objects and packed extents separately, so the chain can attribute a
// repair to the exact source that served it — plus the raw-path
// primitives whole-file healing (extent images and the manifest,
// fetched from a replica quorum) needs.

// Generation returns the committed manifest generation (0 when none).
func (s *Store) Generation() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	man, err := s.loadManifest()
	if err != nil || man == nil {
		return 0, err
	}
	return man.Generation, nil
}

// ObjectLoose returns the hash's bytes from the loose object pool
// only, digest-verified.
func (s *Store) ObjectLoose(hash [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, false
	}
	obj, err := s.read(objectPath(hash))
	if err != nil || sha256.Sum256(obj) != hash {
		return nil, false
	}
	return obj, true
}

// ObjectPacked returns the hash's bytes from the packed extents only,
// digest-verified.
func (s *Store) ObjectPacked(hash [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, false
	}
	obj, ok := s.loadExtentsLocked()[hash]
	if !ok || sha256.Sum256(obj) != hash {
		return nil, false
	}
	return obj, true
}

// PutObject seeds recovered bytes into the loose object pool after
// verifying they are the content the hash names — the write side of
// every repair-chain rung. A no-op when the pool already proves the
// content (loose or packed); a rotted loose object is overwritten in
// place, so healing restores the tree byte-exactly instead of leaving
// a removed-and-reseeded layout.
func (s *Store) PutObject(hash [sha256.Size]byte, data []byte) error {
	if sha256.Sum256(data) != hash {
		return fmt.Errorf("store: put object: bytes do not hash to %x", hash[:8])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if obj, err := s.read(objectPath(hash)); err == nil {
		if sha256.Sum256(obj) == hash {
			return nil
		}
		// A loose copy exists but rotted: heal it in place, before fsck
		// repair would sweep it away as debris.
		return s.writeFileAtomic(objectPath(hash), data)
	}
	if obj, ok := s.loadExtentsLocked()[hash]; ok && sha256.Sum256(obj) == hash {
		return nil // packed content is proven; do not grow a loose twin
	}
	return s.writeFileAtomic(objectPath(hash), data)
}

// ReadRaw reads one store file through the instrumented read path —
// the scrubber's content walk, subject to the same injected rot as any
// consumer.
func (s *Store) ReadRaw(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.read(path)
}

// RestoreRaw atomically replaces one store-internal file with
// replacement bytes a higher authority (a replica quorum) verified —
// whole-file healing for extent images and the manifest.
// Only .popper/ metadata may be restored this way; workspace files
// heal through the manifest-driven Repair path.
func (s *Store) RestoreRaw(path string, data []byte) error {
	if !strings.HasPrefix(path, popperDir+"/") {
		return fmt.Errorf("store: restore-raw %s: not store metadata", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if err := s.writeFileAtomic(path, data); err != nil {
		return err
	}
	if strings.HasPrefix(path, extentsDir+"/") {
		s.invalidateExtents()
	}
	if path == manifestPath {
		s.man, s.got = nil, false
	}
	return nil
}
