package repl

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// Scrub support: the repair chain's highest-priority rung is a replica
// quorum — bytes are trustworthy when a majority of live replicas
// independently serve the same verified content. Anti-entropy alone
// cannot heal silent rot (a replica whose tree rotted but whose log
// digests still match probes clean), so the scrubber also needs a
// forced snapshot install (Reseed) for tree-level divergence that log
// replay will never touch.

// Quorum returns the group's majority threshold.
func (g *Group) Quorum() int { return g.quorum() }

// ObjectQuorum returns the hash's bytes when at least a quorum of live
// replicas hold a digest-verified copy in their object caches. Rotted
// copies fail verification and simply do not count — when the quorum
// itself holds the rot, the attestation count falls short and the
// repair chain must fall down a rung.
func (g *Group) ObjectQuorum(hash [sha256.Size]byte) ([]byte, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var data []byte
	holders := 0
	for _, r := range g.reps {
		if r.down || r.applyErr != nil {
			continue
		}
		obj, ok := r.st.Object(hash)
		if !ok || sha256.Sum256(obj) != hash {
			continue
		}
		holders++
		if data == nil {
			data = obj
		}
	}
	if holders < g.quorum() {
		return nil, holders
	}
	return data, holders
}

// FileQuorum returns a store file's bytes when at least a quorum of
// live replicas serve identical content for the path — whole-file
// attestation for artifacts with no content hash of their own (extent
// images, the manifest). The count returned is the
// largest agreeing set; nil bytes mean no variant reached quorum.
func (g *Group) FileQuorum(path string) ([]byte, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var variants [][]byte
	counts := make([]int, 0, len(g.reps))
	for _, r := range g.reps {
		if r.down || r.applyErr != nil {
			continue
		}
		content, err := r.st.ReadRaw(path)
		if err != nil {
			continue
		}
		matched := false
		for i, v := range variants {
			if bytes.Equal(v, content) {
				counts[i]++
				matched = true
				break
			}
		}
		if !matched {
			variants = append(variants, content)
			counts = append(counts, 1)
		}
	}
	best := -1
	for i, n := range counts {
		if best < 0 || n > counts[best] {
			best = i
		}
	}
	if best < 0 || counts[best] < g.quorum() {
		if best < 0 {
			return nil, 0
		}
		return nil, counts[best]
	}
	return variants[best], counts[best]
}

// Reseed force-installs the primary's full tree image onto a live
// replica — the repair for tree-level rot that log replay cannot see:
// a replica whose store rotted at rest still has matching log digests,
// so Heal's consistency probe passes right over the damage.
func (g *Group) Reseed(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.reps) {
		return fmt.Errorf("repl: reseed: no replica %d", id)
	}
	ldr, err := g.ensureLeaderLocked()
	if err != nil {
		return err
	}
	if ldr.id == id {
		return fmt.Errorf("repl: reseed %d: replica is the primary", id)
	}
	if g.reps[id].down {
		return fmt.Errorf("repl: reseed %d: replica is down", id)
	}
	if !g.installSnapshotLocked(ldr, id) {
		return fmt.Errorf("repl: reseed %d: snapshot install failed", id)
	}
	return nil
}
