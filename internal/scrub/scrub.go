// Package scrub is the silent-corruption defense layer: a background
// scrubber that walks manifests, loose objects, packed extents, the
// cas tier and replica trees on a virtual-clock cadence, verifies
// content against the store's checksummed manifest, and heals what it
// finds through a prioritized repair chain.
//
// Detection is exactly one store.Fsck walk: pass 1 re-hashes every
// manifest entry against its recorded SHA-256, pass 2 classifies the
// store metadata (objects, extents, the manifest itself).
//
// Healing follows a strict priority order, every rung digest-verified:
//
//  1. replica quorum copy (repl.ObjectQuorum / repl.FileQuorum) —
//     bytes a majority of live replicas independently attest;
//  2. cas tier / packed extent — content-addressed local copies;
//  3. loose object pool;
//  4. peer federation fetch over gasnet (cas.Federation.FetchBlob).
//
// A finding no rung can prove is never guessed at: the store's
// quarantine machinery preserves the damaged bytes and the finding is
// reported Unrepairable. When the quorum itself holds the rot, its
// copies fail verification, the attestation count falls short, and
// repair falls down the chain — degradation, not silent corruption.
//
// See docs/RESILIENCE.md ("Scrubbing and silent corruption").
package scrub

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"

	"popper/internal/cas"
	"popper/internal/fault"
	"popper/internal/metrics"
	"popper/internal/repl"
	"popper/internal/store"
)

// Source identifies which repair-chain rung served a heal.
type Source uint8

const (
	// SourceNone: the finding was not healed (detection-only pass, or
	// unrepairable).
	SourceNone Source = iota
	// SourceReplica: a replica quorum attested the bytes.
	SourceReplica
	// SourceExtent: the cas tier or a packed extent held the bytes.
	SourceExtent
	// SourceLoose: the loose object pool held the bytes.
	SourceLoose
	// SourcePeer: a federation peer served the bytes over gasnet.
	SourcePeer
	// SourceReseal: deterministic reconstruction (an intact workspace
	// copy, debris removal, a manifest rebuild) — no byte source needed.
	SourceReseal
)

func (s Source) String() string {
	switch s {
	case SourceReplica:
		return "replica"
	case SourceExtent:
		return "cas"
	case SourceLoose:
		return "loose"
	case SourcePeer:
		return "peer"
	case SourceReseal:
		return "reseal"
	}
	return "none"
}

// Finding is one verified integrity deviation a scrub pass surfaced.
type Finding struct {
	// Site is the damaged path (workspace file, object, extent,
	// manifest), prefixed "replica <id>: " in group mode.
	Site string
	// Replica is the store the finding lives in (0 for a plain store).
	Replica int
	// Generation is the manifest generation the pass verified against.
	Generation int
	// Note carries fsck's classification of the damage.
	Note string
	// Healed reports whether repair restored the site.
	Healed bool
	// Source is the repair-chain rung that served the heal.
	Source Source
	// Unrepairable: no rung could prove the bytes; the damage was
	// quarantined and reported, never guessed at.
	Unrepairable bool
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s (gen %d): %s", f.Site, f.Generation, f.Note)
	switch {
	case f.Healed:
		s += " — healed from " + f.Source.String()
	case f.Unrepairable:
		s += " — UNREPAIRABLE (quarantined)"
	}
	return s
}

// Report is the result of one scrub pass.
type Report struct {
	// Generation is the committed generation of the (primary) store.
	Generation int
	// Scanned counts manifest entries content-verified this pass;
	// Bytes the content bytes hashed.
	Scanned  int
	Bytes    int64
	Findings []Finding
	// Healed / Unrepairable tally the findings.
	Healed       int
	Unrepairable int
	// BySource tallies heals per repair-chain rung.
	BySource map[Source]int
	// Retries counts generation-fence restarts: the tree moved under
	// the pass (a concurrent sync), so findings were discarded and the
	// pass rescanned rather than report torn in-flight state.
	Retries int
}

// Clean reports a pass that found nothing wrong.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// Format renders the report the way `popper scrub` prints it.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: generation %d, %d entr%s verified (%d bytes)\n",
		r.Generation, r.Scanned, plural(r.Scanned, "y", "ies"), r.Bytes)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if r.Clean() {
		b.WriteString("scrub: clean — every manifest entry matches its recorded hash\n")
	} else {
		fmt.Fprintf(&b, "scrub: %d finding(s), %d healed, %d unrepairable\n",
			len(r.Findings), r.Healed, r.Unrepairable)
	}
	return b.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Options configure a Scrubber.
type Options struct {
	// Repair heals findings through the chain; false is detection-only.
	Repair bool
	// Group scrubs every replica of a replicated store and enables the
	// quorum rung; nil scrubs the single Store.
	Group *repl.Group
	// Tier is the cas tier rung (optional).
	Tier *cas.Tier
	// Fed and Host are the peer-federation rung (optional): fetches are
	// issued as Host.
	Fed  *cas.Federation
	Host int
	// Clock, when set, is charged Bytes/BytesPerSec virtual seconds per
	// pass — the cadence account sweeps observe.
	Clock *fault.Clock
	// BytesPerSec is the modeled scrub throughput (default 1 GiB/s).
	BytesPerSec float64
}

// Totals accumulate across every pass of a Scrubber's lifetime.
type Totals struct {
	Passes       int
	Scanned      int
	Bytes        int64
	Findings     int
	Healed       int
	Unrepairable int
	Seconds      float64 // virtual seconds charged
	BySource     map[Source]int
}

// GBPerSec is the virtual scrub throughput the totals witness.
func (t Totals) GBPerSec() float64 {
	if t.Seconds <= 0 {
		return 0
	}
	return float64(t.Bytes) / 1e9 / t.Seconds
}

// Scrubber runs integrity passes over one store (or one replicated
// group). Safe for concurrent use with sweeps: the store's own lock
// serializes each detection step against whole Syncs, so a pass never
// observes a torn in-flight write, and a generation fence rescans if
// the tree moved between steps.
type Scrubber struct {
	st   *store.Store
	opts Options

	mu     sync.Mutex
	totals Totals
}

// New builds a scrubber over a store. With opts.Group set the store
// argument may be nil (the group names its own replicas).
func New(st *store.Store, opts Options) *Scrubber {
	if opts.BytesPerSec <= 0 {
		opts.BytesPerSec = 1 << 30
	}
	if opts.Group != nil && st == nil {
		st = opts.Group.Store(0)
	}
	return &Scrubber{st: st, opts: opts}
}

// Totals returns a snapshot of the lifetime counters.
func (sc *Scrubber) Totals() Totals {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	t := sc.totals
	t.BySource = make(map[Source]int, len(sc.totals.BySource))
	for k, v := range sc.totals.BySource {
		t.BySource[k] = v
	}
	return t
}

// Record publishes the scrubber's counters into a metrics registry as
// scrub_* gauges, alongside the cache_* family.
func (sc *Scrubber) Record(reg *metrics.Registry) {
	t := sc.Totals()
	reg.Set("scrub_passes", float64(t.Passes))
	reg.Set("scrub_entries_verified", float64(t.Scanned))
	reg.Set("scrub_bytes_verified", float64(t.Bytes))
	reg.Set("scrub_findings", float64(t.Findings))
	reg.Set("scrub_healed", float64(t.Healed))
	reg.Set("scrub_unrepairable", float64(t.Unrepairable))
	reg.Set("scrub_healed_replica", float64(t.BySource[SourceReplica]))
	reg.Set("scrub_healed_cas", float64(t.BySource[SourceExtent]))
	reg.Set("scrub_healed_loose", float64(t.BySource[SourceLoose]))
	reg.Set("scrub_healed_peer", float64(t.BySource[SourcePeer]))
}

// Scrub runs one full pass: detect, localize, heal (when Repair is
// set), re-verify. In group mode every replica's store is scrubbed,
// then replica agreement is audited and tree-level divergence healed
// by anti-entropy or forced reseed.
func (sc *Scrubber) Scrub() (*Report, error) {
	rep := &Report{BySource: make(map[Source]int)}
	if sc.opts.Group != nil {
		if err := sc.scrubGroup(rep); err != nil {
			return nil, err
		}
	} else {
		if err := sc.scrubStore(sc.st, 0, rep); err != nil {
			return nil, err
		}
	}
	sc.mu.Lock()
	sc.totals.Passes++
	sc.totals.Scanned += rep.Scanned
	sc.totals.Bytes += rep.Bytes
	sc.totals.Findings += len(rep.Findings)
	sc.totals.Healed += rep.Healed
	sc.totals.Unrepairable += rep.Unrepairable
	if sc.totals.BySource == nil {
		sc.totals.BySource = make(map[Source]int)
	}
	for k, v := range rep.BySource {
		sc.totals.BySource[k] += v
	}
	seconds := float64(rep.Bytes) / sc.opts.BytesPerSec
	sc.totals.Seconds += seconds
	sc.mu.Unlock()
	if sc.opts.Clock != nil {
		sc.opts.Clock.Advance(seconds)
	}
	sortFindings(rep.Findings)
	return rep, nil
}

// fenceRetries bounds how many times a pass restarts when a concurrent
// sync moves the generation mid-pass.
const fenceRetries = 3

// scrubStore runs the detect→heal→re-verify cycle on one store.
func (sc *Scrubber) scrubStore(st *store.Store, replica int, rep *Report) error {
	for attempt := 0; ; attempt++ {
		moved, err := sc.pass(st, replica, rep)
		if err != nil {
			return err
		}
		if !moved || attempt >= fenceRetries {
			return nil
		}
		rep.Retries++
	}
}

// pass is one generation-fenced detection+heal cycle. moved=true means
// the committed generation changed under the pass: findings from this
// cycle were discarded (they may be phantoms of an in-flight sync) and
// the caller should rescan.
func (sc *Scrubber) pass(st *store.Store, replica int, rep *Report) (bool, error) {
	gen0, err := st.Generation()
	if err != nil {
		gen0 = -1 // damaged manifest: fsck will classify it below
	}

	// Detection: fsck hashes every manifest entry against its recorded
	// hash and classifies structural damage — manifest, objects,
	// extents, workspace files. Runs under the store lock, so it never
	// interleaves with a sync.
	fsckRep, err := st.Fsck()
	if err != nil {
		return false, err
	}
	rep.Scanned += fsckRep.Tracked
	rep.Bytes += fsckRep.Bytes

	// Generation fence: if a concurrent sync committed while we were
	// scanning, every finding above may describe a tree that no longer
	// exists. Discard and rescan.
	if gen1, err := st.Generation(); err == nil && gen0 >= 0 && gen1 != gen0 {
		return true, nil
	}

	gen := fsckRep.Generation
	if rep.Generation == 0 {
		rep.Generation = gen
	}

	// Fold fsck findings into typed findings; seen indexes them by path
	// (fsck reports each path at most once).
	seen := make(map[string]int)
	addFinding := func(site, note string) {
		seen[site] = len(rep.Findings)
		rep.Findings = append(rep.Findings, Finding{Site: sitePrefix(replica) + site, Replica: replica, Generation: gen, Note: note})
	}
	if fsckRep.ManifestMissing {
		addFinding(store.ManifestFile, "manifest missing")
	}
	if fsckRep.ManifestDamaged {
		addFinding(store.ManifestFile, "manifest damaged (checksum or format error)")
	}
	for _, f := range fsckRep.Findings {
		note := f.State.String()
		if f.Note != "" {
			note += ": " + f.Note
		}
		addFinding(f.Path, note)
	}

	if fsckRep.Clean() {
		return false, nil
	}
	if !sc.opts.Repair {
		return false, nil
	}

	// Healing. Rung 1 first for whole-file artifacts: store metadata
	// with no manifest entry of its own (extent images, the manifest)
	// heals byte-exactly only from a replica quorum.
	healedSites := make(map[string]Source)
	if sc.opts.Group != nil {
		for _, f := range fsckRep.Findings {
			if !strings.HasPrefix(f.Path, store.ExtentsPrefix) {
				continue
			}
			if data, n := sc.opts.Group.FileQuorum(f.Path); n > 0 && data != nil {
				if verifyStoreFile(f.Path, data) {
					if err := st.RestoreRaw(f.Path, data); err != nil {
						return false, err
					}
					healedSites[f.Path] = SourceReplica
				}
			}
		}
		if fsckRep.ManifestMissing || fsckRep.ManifestDamaged {
			if data, n := sc.opts.Group.FileQuorum(store.ManifestFile); n > 0 && data != nil && verifyStoreFile(store.ManifestFile, data) {
				if err := st.RestoreRaw(store.ManifestFile, data); err != nil {
					return false, err
				}
				healedSites[store.ManifestFile] = SourceReplica
			}
		}
	}

	// Content rung walk: every manifest entry this pass flagged (by
	// path or by its object's path), plus every entry the local object
	// cache cannot prove, resolves its bytes through the chain, highest
	// priority first — a flagged entry walks the whole chain even when a
	// local copy could serve it, so attribution names the
	// highest-priority live rung, not merely a sufficient one. Recovered
	// bytes seed the loose pool (healing a rotted loose object in place)
	// so the structural repair below restores files byte-exactly.
	// Re-read the manifest: rung 1 may have just healed it.
	man, merr := st.Manifest()
	if merr == nil && man != nil {
		for _, e := range man.Entries {
			objSite := store.ObjectFile(e.Hash)
			_, pathFlagged := seen[e.Path]
			_, objFlagged := seen[objSite]
			if !pathFlagged && !objFlagged {
				if _, ok := st.Object(e.Hash); ok {
					continue
				}
			}
			data, src := sc.recover(st, e.Hash)
			if src == SourceNone {
				// Last resort: an intact workspace copy proves the bytes —
				// deterministic reconstruction, no external source needed.
				if content, err := st.ReadRaw(e.Path); err == nil && sha256.Sum256(content) == e.Hash {
					data, src = content, SourceReseal
				}
			}
			if src == SourceNone {
				continue // no rung can prove the bytes: quarantined below
			}
			if err := st.PutObject(e.Hash, data); err != nil {
				return false, err
			}
			healedSites[e.Path] = src
			healedSites[objSite] = src
		}
	}

	// Structural repair: restore damaged files from the (now seeded)
	// object cache, salvage what rung 1 could not fetch whole, remove
	// debris, quarantine the unprovable.
	quarantined := make(map[string]bool)
	fsckRep2, err := st.Fsck()
	if err != nil {
		return false, err
	}
	if !fsckRep2.Clean() {
		acts, err := st.Repair(fsckRep2)
		if err != nil {
			return false, err
		}
		for _, a := range acts {
			if a.Verb == "quarantined" {
				quarantined[a.Path] = true
			}
		}
	}

	// Re-verify and attribute. A site that is clean now was healed; one
	// still dirty, quarantined, or dropped from the manifest (missing
	// content no rung could prove) is unrepairable.
	final, err := st.Fsck()
	if err != nil {
		return false, err
	}
	stillBad := make(map[string]bool)
	for _, f := range final.Findings {
		stillBad[f.Path] = true
	}
	if final.ManifestMissing || final.ManifestDamaged {
		stillBad[store.ManifestFile] = true
	}
	surviving := make(map[string]bool)
	if fman, ferr := st.Manifest(); ferr == nil && fman != nil {
		for _, e := range fman.Entries {
			surviving[e.Path] = true
		}
	}
	for site, idx := range seen {
		f := &rep.Findings[idx]
		wasEntry := false
		if man != nil {
			_, wasEntry = man.Lookup(site)
		}
		if stillBad[site] || quarantined[site] || (wasEntry && !surviving[site]) {
			f.Unrepairable = true
			rep.Unrepairable++
			continue
		}
		f.Healed = true
		if src, ok := healedSites[site]; ok {
			f.Source = src
		} else {
			// Debris removal, adoption, intent rollback: healed by
			// deterministic reconstruction, no byte source consulted.
			f.Source = SourceReseal
		}
		rep.Healed++
		rep.BySource[f.Source]++
	}
	return false, nil
}

// verifyStoreFile checks quorum-attested bytes actually parse as the
// artifact class the path names before they are installed — a quorum
// that itself rotted must never overwrite local state with garbage.
func verifyStoreFile(path string, data []byte) bool {
	switch {
	case strings.HasPrefix(path, store.ExtentsPrefix):
		_, err := cas.ParseExtent(data)
		return err == nil
	case path == store.ManifestFile:
		_, err := store.ParseManifest(data)
		return err == nil
	}
	return false
}

// recover walks the repair chain for one content hash, highest
// priority first, verifying every rung's bytes against the hash.
func (sc *Scrubber) recover(st *store.Store, hash [sha256.Size]byte) ([]byte, Source) {
	if sc.opts.Group != nil {
		if data, _ := sc.opts.Group.ObjectQuorum(hash); data != nil {
			return data, SourceReplica
		}
	}
	if sc.opts.Tier != nil {
		if data, ok := sc.opts.Tier.Lookup(hash); ok {
			return data, SourceExtent
		}
	}
	if data, ok := st.ObjectPacked(hash); ok {
		return data, SourceExtent
	}
	if data, ok := st.ObjectLoose(hash); ok {
		return data, SourceLoose
	}
	if sc.opts.Fed != nil {
		if data, _, err := sc.opts.Fed.FetchBlob(sc.opts.Host, hash); err == nil {
			if sha256.Sum256(data) == hash {
				return data, SourcePeer
			}
		}
	}
	return nil, SourceNone
}

// scrubGroup scrubs every replica's store content-first, then audits
// replica agreement and heals tree-level divergence: anti-entropy for
// lag, forced snapshot reseed for divergence log replay cannot see.
func (sc *Scrubber) scrubGroup(rep *Report) error {
	g := sc.opts.Group
	for id := 0; id < g.Size(); id++ {
		if g.Down(id) {
			continue
		}
		if err := sc.scrubStore(g.Store(id), id, rep); err != nil {
			// One replica's store being terminally dead must not stop
			// the scrub of its peers.
			rep.Findings = append(rep.Findings, Finding{
				Site: sitePrefix(id) + "store", Replica: id,
				Note: "store unavailable: " + err.Error(), Unrepairable: true,
			})
			rep.Unrepairable++
		}
	}
	aud, err := g.Audit()
	if err != nil {
		return err
	}
	if !sc.opts.Repair {
		for _, id := range aud.Divergent {
			rep.Findings = append(rep.Findings, Finding{
				Site: sitePrefix(id) + "tree", Replica: id,
				Note: "tree diverges from the primary history",
			})
		}
		return nil
	}
	if len(aud.Lagging) > 0 || len(aud.Divergent) > 0 {
		if err := g.Heal(); err == nil {
			aud, err = g.Audit()
			if err != nil {
				return err
			}
		}
	}
	for _, id := range aud.Divergent {
		f := Finding{
			Site: sitePrefix(id) + "tree", Replica: id,
			Note: "tree diverges from the primary history",
		}
		if err := g.Reseed(id); err == nil {
			f.Healed, f.Source = true, SourceReplica
			rep.Healed++
			rep.BySource[SourceReplica]++
		} else {
			f.Unrepairable = true
			rep.Unrepairable++
		}
		rep.Findings = append(rep.Findings, f)
	}
	return nil
}

// sitePrefix labels findings with their replica in group mode.
func sitePrefix(replica int) string {
	if replica == 0 {
		return ""
	}
	return fmt.Sprintf("replica %d: ", replica)
}

// sortFindings orders findings for stable display.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Site < fs[j].Site })
}
