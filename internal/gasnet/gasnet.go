// Package gasnet implements the partitioned-global-address-space (PGAS)
// communication substrate GassyFS is built on in the paper ("GassyFS
// builds a distributed in-memory file system on top of the GASNet
// library").
//
// A World binds a set of cluster nodes into ranks. Each rank attaches a
// memory segment (accounted against the node's simulated RAM and backed
// by real bytes), and any rank can Put/Get into any segment with
// one-sided RDMA semantics: the caller pays latency plus payload time on
// its logical clock, the target is undisturbed. Barriers synchronize all
// ranks. Remote access cost versus local access cost is exactly what
// makes the GassyFS scalability experiment (Figure gassyfs-git) behave
// sublinearly, so the fidelity of this layer is what the reproduction of
// that figure rests on.
//
// The data path is built for host parallelism: segment bytes live in
// fixed-size chunks each guarded by its own mutex, so concurrent
// accesses to disjoint block ranges never contend on a lock. Zero-copy
// variants (GetInto/PutFrom) move bytes through caller-owned buffers,
// and vectored variants (Getv/Putv) batch the per-block clock, lock and
// metric bookkeeping of a multi-block transfer into a single call. The
// *DeferClock vectored forms additionally return the transfer cost
// instead of advancing the caller's clock, so parallel engines can fan
// transfers out across goroutines and apply the clock charges serially
// in a deterministic order (see docs/SUBSTRATES.md).
package gasnet

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"popper/internal/cluster"
	"popper/internal/fault"
	"popper/internal/metrics"
)

// Addr is a global address: a rank plus an offset into its segment.
type Addr struct {
	Rank   int
	Offset int64
}

// Segments are backed by fixed-size chunks, each with its own lock and a
// lazily materialized buffer. Striping the locks lets concurrent clients
// touch disjoint block ranges without contention, and lazy
// materialization keeps huge registrations (gigabytes of aggregate
// simulated memory) cheap when experiments touch only a small subset.
// An all-zero write into an unmaterialized chunk leaves it unmaterialized:
// a nil chunk already reads as zeros.
const (
	chunkShift = 18 // 256 KiB chunks
	chunkSize  = int64(1) << chunkShift
)

// zeroChunk is compared against, never written.
var zeroChunk [chunkSize]byte

type segChunk struct {
	mu   sync.Mutex
	data []byte // nil until first write; reads of nil observe zeros
}

// segment is one rank's registered memory. size is immutable after
// attachment; all byte access goes through the per-chunk locks.
type segment struct {
	size   int64
	chunks []segChunk
}

func newSegment(size int64) *segment {
	n := (size + chunkSize - 1) >> chunkShift
	return &segment{size: size, chunks: make([]segChunk, n)}
}

// span returns the byte range [lo, hi) covered by chunk c.
func (s *segment) span(c int) (lo, hi int64) {
	lo = int64(c) << chunkShift
	hi = lo + chunkSize
	if hi > s.size {
		hi = s.size
	}
	return lo, hi
}

// writeAt copies data into the segment at off. Bounds are validated by
// the caller; only the chunks overlapping the range are locked, one at a
// time. The segment never keeps a reference to data.
func (s *segment) writeAt(off int64, data []byte) {
	for len(data) > 0 {
		c := int(off >> chunkShift)
		lo, hi := s.span(c)
		n := hi - off
		if int64(len(data)) < n {
			n = int64(len(data))
		}
		ch := &s.chunks[c]
		ch.mu.Lock()
		if ch.data != nil {
			copy(ch.data[off-lo:], data[:n])
		} else if !bytes.Equal(data[:n], zeroChunk[:n]) {
			ch.data = make([]byte, hi-lo)
			copy(ch.data[off-lo:], data[:n])
		}
		ch.mu.Unlock()
		off += n
		data = data[n:]
	}
}

// readAt fills out with the segment bytes at off. Unmaterialized chunks
// read as zeros, exactly as freshly registered memory would.
func (s *segment) readAt(off int64, out []byte) {
	for len(out) > 0 {
		c := int(off >> chunkShift)
		lo, hi := s.span(c)
		n := hi - off
		if int64(len(out)) < n {
			n = int64(len(out))
		}
		ch := &s.chunks[c]
		ch.mu.Lock()
		if ch.data == nil {
			clear(out[:n])
		} else {
			copy(out[:n], ch.data[off-lo:])
		}
		ch.mu.Unlock()
		off += n
		out = out[n:]
	}
}

// opKeys holds the metric names for one operation direction, precomputed
// at World construction so the hot path never concatenates strings.
type opKeys struct {
	opsLocal    string
	opsRemote   string
	bytesLocal  string
	bytesRemote string
	seconds     string
}

func newOpKeys(op string) opKeys {
	return opKeys{
		opsLocal:    "gasnet_" + op + "_ops_local",
		opsRemote:   "gasnet_" + op + "_ops_remote",
		bytesLocal:  "gasnet_" + op + "_bytes_local",
		bytesRemote: "gasnet_" + op + "_bytes_remote",
		seconds:     "gasnet_" + op + "_seconds",
	}
}

// World is a GASNet job: ranks pinned to cluster nodes sharing a network.
// Concurrent Put/Get from multiple goroutines (multi-client filesystems)
// are safe: segment attachment is guarded by mu, and segment bytes are
// guarded by per-chunk locks.
type World struct {
	mu       sync.RWMutex // guards segment attachment
	nodes    []*cluster.Node
	net      *cluster.Network
	segments []*segment
	reg      *metrics.Registry
	putKeys  opKeys
	getKeys  opKeys
	faults   *fault.Injector
}

// New creates a world over the given nodes. The metrics registry is
// optional (nil disables instrumentation).
func New(nodes []*cluster.Node, net *cluster.Network, reg *metrics.Registry) (*World, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("gasnet: world needs at least one node")
	}
	if net == nil {
		return nil, fmt.Errorf("gasnet: world needs a network")
	}
	return &World{
		nodes:    nodes,
		net:      net,
		segments: make([]*segment, len(nodes)),
		reg:      reg,
		putKeys:  newOpKeys("put"),
		getKeys:  newOpKeys("get"),
	}, nil
}

// SetFaults installs a deterministic fault injector on the RDMA data
// path (sites "gasnet/<op>/r<caller>" for op in put, get, putv, getv,
// plus directed link sites "gasnet/link/r<caller>/r<target>" for every
// remote access — the hook network-split rules partition pairs with).
// Injected partitions and errors surface as typed *fault.Fault errors
// (detect with fault.IsPartition / fault.As) before any byte moves, so
// a failed transfer never leaves a segment half-written and idempotent
// retries are safe; injected latency is charged like transfer cost.
// Install before the world is shared across goroutines.
//
// Determinism caveat: a site's occurrence counter advances in call
// order, so occurrence-windowed rules (After/Times) are deterministic
// only when the site's ops are issued serially; under concurrent
// clients use occurrence-independent rules (prob 0 or 1, no window).
func (w *World) SetFaults(inj *fault.Injector) { w.faults = inj }

// Faults returns the installed fault injector (nil when chaos is off).
func (w *World) Faults() *fault.Injector { return w.faults }

// checkFault consults the injector for one RDMA op. It returns the
// injected latency to fold into the transfer cost, or the typed fault
// error to surface instead of transferring.
func (w *World) checkFault(op string, caller int) (float64, error) {
	if w.faults == nil {
		return 0, nil
	}
	f := w.faults.Check(fmt.Sprintf("gasnet/%s/r%d", op, caller))
	if f == nil {
		return 0, nil
	}
	if f.Kind == fault.Latency {
		return f.Delay, nil
	}
	return 0, fmt.Errorf("gasnet: %s from rank %d: %w", op, caller, f)
}

// checkLink consults the injector for the directed caller→target link
// of one remote access (site "gasnet/link/r<caller>/r<target>"). Local
// accesses traverse no link. Link sites are what network-split rules
// glob over — {site: "gasnet/link/r2/*", kind: partition} plus its
// mirror isolates rank 2 — and they fire before any byte moves, so a
// partitioned transfer never leaves a segment half-written. Injected
// latency is returned to fold into the transfer cost.
func (w *World) checkLink(op string, caller, target int) (float64, error) {
	if w.faults == nil || caller == target {
		return 0, nil
	}
	f := w.faults.Check(fmt.Sprintf("gasnet/link/r%d/r%d", caller, target))
	if f == nil {
		return 0, nil
	}
	if f.Kind == fault.Latency {
		return f.Delay, nil
	}
	return 0, fmt.Errorf("gasnet: %s link r%d->r%d: %w", op, caller, target, f)
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.nodes) }

// Node returns the cluster node behind a rank.
func (w *World) Node(rank int) (*cluster.Node, error) {
	if rank < 0 || rank >= len(w.nodes) {
		return nil, fmt.Errorf("gasnet: rank %d out of range [0,%d)", rank, len(w.nodes))
	}
	return w.nodes[rank], nil
}

// AttachSegment registers `size` bytes of RDMA-addressable memory on the
// rank's node. Each rank may attach once.
func (w *World) AttachSegment(rank int, size int64) error {
	node, err := w.Node(rank)
	if err != nil {
		return err
	}
	if size <= 0 {
		return fmt.Errorf("gasnet: segment size must be positive")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.segments[rank] != nil {
		return fmt.Errorf("gasnet: rank %d already has a segment", rank)
	}
	if err := node.Alloc(size); err != nil {
		return fmt.Errorf("gasnet: attaching segment: %w", err)
	}
	w.segments[rank] = newSegment(size)
	return nil
}

// AttachAll attaches equal segments on every rank. Ranks attach
// concurrently, and every rank is attempted even if some fail; failures
// are aggregated into one error naming each failing rank (the same
// all-indexes-run contract sched.Pool.Each gives).
func (w *World) AttachAll(size int64) error {
	errs := make([]error, len(w.nodes))
	var wg sync.WaitGroup
	wg.Add(len(w.nodes))
	for r := range w.nodes {
		go func(r int) {
			defer wg.Done()
			errs[r] = w.AttachSegment(r, size)
		}(r)
	}
	wg.Wait()
	var failed []string
	for r, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("rank %d: %v", r, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("gasnet: attach failed on %d/%d ranks: %s",
			len(failed), len(w.nodes), strings.Join(failed, "; "))
	}
	return nil
}

// SegmentSize returns the attached segment size of a rank (0 if none).
func (w *World) SegmentSize(rank int) int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if rank < 0 || rank >= len(w.segments) || w.segments[rank] == nil {
		return 0
	}
	return w.segments[rank].size
}

// TotalMemory returns the aggregate attached memory across ranks —
// GassyFS's headline feature ("aggregates memory of multiple nodes").
func (w *World) TotalMemory() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var total int64
	for _, s := range w.segments {
		if s != nil {
			total += s.size
		}
	}
	return total
}

// checkAccessLocked validates target bounds; caller holds w.mu (either side).
func (w *World) checkAccessLocked(target Addr, n int64) (*segment, error) {
	if target.Rank < 0 || target.Rank >= len(w.nodes) {
		return nil, fmt.Errorf("gasnet: target rank %d out of range", target.Rank)
	}
	seg := w.segments[target.Rank]
	if seg == nil {
		return nil, fmt.Errorf("gasnet: rank %d has no segment", target.Rank)
	}
	if target.Offset < 0 || n < 0 || target.Offset+n > seg.size {
		return nil, fmt.Errorf("gasnet: access [%d, %d) outside segment of rank %d (size %d)",
			target.Offset, target.Offset+n, target.Rank, seg.size)
	}
	return seg, nil
}

// checkAccess validates the access and returns the target segment.
func (w *World) checkAccess(caller int, target Addr, n int64) (*segment, error) {
	if caller < 0 || caller >= len(w.nodes) {
		return nil, fmt.Errorf("gasnet: caller rank %d out of range", caller)
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.checkAccessLocked(target, n)
}

// Put writes data into the target segment with one-sided semantics; the
// caller's clock advances by the transfer cost. The data buffer stays
// owned by the caller (the world never retains it).
func (w *World) Put(caller int, target Addr, data []byte) error {
	return w.PutFrom(caller, target, data)
}

// PutFrom is the zero-copy put: bytes move straight from the caller's
// buffer into the segment chunks, with exactly one copy and no
// intermediate allocation.
func (w *World) PutFrom(caller int, target Addr, data []byte) error {
	seg, err := w.checkAccess(caller, target, int64(len(data)))
	if err != nil {
		return err
	}
	delay, err := w.checkFault("put", caller)
	if err != nil {
		return err
	}
	linkDelay, err := w.checkLink("put", caller, target.Rank)
	if err != nil {
		return err
	}
	delay += linkDelay
	if delay > 0 {
		w.nodes[caller].Advance(delay)
	}
	elapsed := delay + w.net.RDMAWrite(w.nodes[caller], w.nodes[target.Rank], int64(len(data)))
	seg.writeAt(target.Offset, data)
	w.observe(&w.putKeys, caller == target.Rank, 1, int64(len(data)), elapsed)
	return nil
}

// Get reads n bytes from the target segment into a fresh buffer; the
// caller's clock advances by the transfer cost. The returned buffer is
// an isolated copy the caller owns.
func (w *World) Get(caller int, target Addr, n int64) ([]byte, error) {
	if _, err := w.checkAccess(caller, target, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := w.GetInto(caller, target, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetInto is the zero-copy get: len(buf) bytes land directly in the
// caller-owned buffer, with exactly one copy and no allocation.
func (w *World) GetInto(caller int, target Addr, buf []byte) error {
	seg, err := w.checkAccess(caller, target, int64(len(buf)))
	if err != nil {
		return err
	}
	delay, err := w.checkFault("get", caller)
	if err != nil {
		return err
	}
	linkDelay, err := w.checkLink("get", caller, target.Rank)
	if err != nil {
		return err
	}
	delay += linkDelay
	if delay > 0 {
		w.nodes[caller].Advance(delay)
	}
	elapsed := delay + w.net.RDMARead(w.nodes[caller], w.nodes[target.Rank], int64(len(buf)))
	seg.readAt(target.Offset, buf)
	w.observe(&w.getKeys, caller == target.Rank, 1, int64(len(buf)), elapsed)
	return nil
}

// Getv is the vectored get: bufs[i] is filled from addrs[i], the
// caller's clock advances once by the summed transfer cost, and metric
// bookkeeping is batched into one update per key. Returns the elapsed
// virtual time. Bounds are validated for every block before any byte
// moves.
func (w *World) Getv(caller int, addrs []Addr, bufs [][]byte) (float64, error) {
	return w.vectored(caller, addrs, bufs, true, true)
}

// GetvDeferClock is Getv without the clock advance: it returns the cost
// so a deterministic engine can apply charges in a fixed order after
// fanning transfers out across goroutines.
func (w *World) GetvDeferClock(caller int, addrs []Addr, bufs [][]byte) (float64, error) {
	return w.vectored(caller, addrs, bufs, true, false)
}

// Putv is the vectored put: bufs[i] is written to addrs[i] with one
// clock advance and batched metric bookkeeping. Returns the elapsed
// virtual time.
func (w *World) Putv(caller int, addrs []Addr, bufs [][]byte) (float64, error) {
	return w.vectored(caller, addrs, bufs, false, true)
}

// PutvDeferClock is Putv without the clock advance (see GetvDeferClock).
func (w *World) PutvDeferClock(caller int, addrs []Addr, bufs [][]byte) (float64, error) {
	return w.vectored(caller, addrs, bufs, false, false)
}

func (w *World) vectored(caller int, addrs []Addr, bufs [][]byte, isGet, advance bool) (float64, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("gasnet: vectored op: %d addrs but %d buffers", len(addrs), len(bufs))
	}
	if caller < 0 || caller >= len(w.nodes) {
		return 0, fmt.Errorf("gasnet: caller rank %d out of range", caller)
	}
	if len(addrs) == 0 {
		return 0, nil
	}
	callerNode := w.nodes[caller]
	w.mu.RLock()
	defer w.mu.RUnlock()
	for i, a := range addrs {
		if _, err := w.checkAccessLocked(a, int64(len(bufs[i]))); err != nil {
			return 0, err
		}
	}
	op := "putv"
	if isGet {
		op = "getv"
	}
	// Vectored ops fault atomically: the partition hits before any block
	// of the batch moves, so retrying the whole batch is idempotent.
	elapsed, ferr := w.checkFault(op, caller)
	if ferr != nil {
		return 0, ferr
	}
	if w.faults != nil {
		// Each distinct remote rank in the batch traverses its link once,
		// in first-appearance order so the occurrence stream is stable.
		for i, a := range addrs {
			if a.Rank == caller {
				continue
			}
			seen := false
			for _, b := range addrs[:i] {
				if b.Rank == a.Rank {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			delay, lerr := w.checkLink(op, caller, a.Rank)
			if lerr != nil {
				return 0, lerr
			}
			elapsed += delay
		}
	}
	var localOps, remoteOps int64
	var localBytes, remoteBytes int64
	for i, a := range addrs {
		n := int64(len(bufs[i]))
		elapsed += w.net.RDMACost(callerNode, w.nodes[a.Rank], n)
		if a.Rank == caller {
			localOps++
			localBytes += n
		} else {
			remoteOps++
			remoteBytes += n
		}
		seg := w.segments[a.Rank]
		if isGet {
			seg.readAt(a.Offset, bufs[i])
		} else {
			seg.writeAt(a.Offset, bufs[i])
		}
	}
	if advance {
		callerNode.Advance(elapsed)
	}
	keys := &w.putKeys
	if isGet {
		keys = &w.getKeys
	}
	if w.reg != nil {
		if localOps > 0 {
			w.reg.Add(keys.opsLocal, float64(localOps))
			w.reg.Add(keys.bytesLocal, float64(localBytes))
		}
		if remoteOps > 0 {
			w.reg.Add(keys.opsRemote, float64(remoteOps))
			w.reg.Add(keys.bytesRemote, float64(remoteBytes))
		}
		w.reg.Observe(keys.seconds, elapsed)
	}
	return elapsed, nil
}

func (w *World) observe(keys *opKeys, local bool, ops, bytes int64, elapsed float64) {
	if w.reg == nil {
		return
	}
	if local {
		w.reg.Add(keys.opsLocal, float64(ops))
		w.reg.Add(keys.bytesLocal, float64(bytes))
	} else {
		w.reg.Add(keys.opsRemote, float64(ops))
		w.reg.Add(keys.bytesRemote, float64(bytes))
	}
	w.reg.Observe(keys.seconds, elapsed)
}

// Barrier synchronizes every rank's clock.
func (w *World) Barrier() float64 {
	return w.net.Barrier(w.nodes)
}

// MaxClock returns the latest logical clock across ranks (the makespan).
func (w *World) MaxClock() float64 {
	return cluster.MaxClock(w.nodes)
}

// Compute runs work on a rank's node and returns the elapsed time.
func (w *World) Compute(rank int, work cluster.Work) (float64, error) {
	node, err := w.Node(rank)
	if err != nil {
		return 0, err
	}
	return node.Run(work), nil
}
