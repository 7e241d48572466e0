package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"popper/internal/store"
)

// span is one timed call into a layer. Spans of one op share Op; the
// op's root span has Parent 0. Times are seconds since the run began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps every span of a traced run in memory; write dumps them
// once the run is over.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// probe records one traced op: spans around the calls the op makes
// into each layer, plus the per-layer metrics those calls yield. Every
// method is a no-op on a nil probe, which is how the untraced runs call
// the very same op code without wrappers.
type probe struct {
	tr  *tracer
	op  int
	vfs vfsCounts

	mu sync.Mutex
	// phase is the span that callbacks from inside the program (journal
	// Puts, object-tier fallbacks) are parented to.
	phase   int
	metrics map[string]float64
}

func newProbe(tr *tracer, op int) *probe {
	return &probe{tr: tr, op: op, metrics: map[string]float64{}}
}

// begin opens a span and returns its id.
func (p *probe) begin(name string, parent int) int {
	if p == nil {
		return 0
	}
	now := time.Since(p.tr.t0).Seconds()
	p.tr.mu.Lock()
	defer p.tr.mu.Unlock()
	id := len(p.tr.spans) + 1
	p.tr.spans = append(p.tr.spans, span{ID: id, Parent: parent, Op: p.op, Name: name, Start: now, End: now})
	return id
}

// end closes span id and adds its duration to metric (when non-empty).
func (p *probe) end(id int, metric string) {
	if p == nil {
		return
	}
	now := time.Since(p.tr.t0).Seconds()
	p.tr.mu.Lock()
	sp := &p.tr.spans[id-1]
	sp.End = now
	d := sp.End - sp.Start
	p.tr.mu.Unlock()
	if metric != "" {
		p.add(metric, d)
	}
}

func (p *probe) add(metric string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.metrics[metric] += v
	p.mu.Unlock()
}

func (p *probe) set(metric string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.metrics[metric] = v
	p.mu.Unlock()
}

func (p *probe) setPhase(id int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = id
	p.mu.Unlock()
}

func (p *probe) currentPhase() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phase
}

// openStore opens the repository's artifact store the way the CLI
// does; a traced op routes it through the counting VFS instead.
func (p *probe) openStore(dir string) *store.Store {
	if p == nil {
		return store.Open(dir)
	}
	return store.New(&countingFS{VFS: store.NewDirFS(dir), c: &p.vfs})
}

// objectFallback wraps the store's object lookup the object tier falls
// back to on a miss, counting and timing each call.
func (p *probe) objectFallback(st *store.Store) func([32]byte) ([]byte, bool) {
	if p == nil {
		return st.Object
	}
	return func(hash [32]byte) ([]byte, bool) {
		id := p.begin("cas.fallback", p.currentPhase())
		data, ok := st.Object(hash)
		p.end(id, "cas.fallback_s")
		p.add("cas.fallback_calls", 1)
		return data, ok
	}
}

// durable wraps the store's journal Put the sweep commits through.
func (p *probe) durable(st *store.Store) func(string, []byte) error {
	if p == nil {
		return st.Put
	}
	return func(path string, data []byte) error {
		id := p.begin("store.put", p.currentPhase())
		err := st.Put(path, data)
		p.end(id, "store.put_s")
		p.add("store.put_calls", 1)
		return err
	}
}

// finish folds the VFS counters into the op's metrics and returns them.
func (p *probe) finish() map[string]float64 {
	c := &p.vfs
	secs := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / 1e9 }
	p.set("vfs.reads", float64(c.reads.Load()))
	p.set("vfs.read_bytes", float64(c.readBytes.Load()))
	p.set("vfs.read_s", secs(&c.readNS))
	p.set("vfs.writes", float64(c.writes.Load()))
	p.set("vfs.write_bytes", float64(c.writeBytes.Load()))
	p.set("vfs.fsyncs", float64(c.fsyncs.Load()))
	p.set("vfs.fsync_s", secs(&c.fsyncNS))
	p.set("vfs.renames", float64(c.renames.Load()))
	p.set("vfs.lists", float64(c.lists.Load()))
	p.set("vfs.list_s", secs(&c.listNS))
	return p.metrics
}

// vfsCounts aggregates the disk calls of every store an op opens.
type vfsCounts struct {
	reads, readBytes, readNS atomic.Int64
	writes, writeBytes       atomic.Int64
	fsyncs, fsyncNS          atomic.Int64
	renames, lists, listNS   atomic.Int64
}

// countingFS is a store.VFS that counts and times the calls it
// forwards to the real directory.
type countingFS struct {
	store.VFS
	c *vfsCounts
}

func (f *countingFS) ReadFile(path string) ([]byte, error) {
	t := time.Now()
	data, err := f.VFS.ReadFile(path)
	f.c.readNS.Add(int64(time.Since(t)))
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(len(data)))
	return data, err
}

func (f *countingFS) WriteFile(path string, data []byte) error {
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(len(data)))
	return f.VFS.WriteFile(path, data)
}

func (f *countingFS) Rename(oldPath, newPath string) error {
	f.c.renames.Add(1)
	return f.VFS.Rename(oldPath, newPath)
}

func (f *countingFS) Sync(path string) error {
	t := time.Now()
	err := f.VFS.Sync(path)
	f.c.fsyncNS.Add(int64(time.Since(t)))
	f.c.fsyncs.Add(1)
	return err
}

func (f *countingFS) SyncDir(dir string) error {
	t := time.Now()
	err := f.VFS.SyncDir(dir)
	f.c.fsyncNS.Add(int64(time.Since(t)))
	f.c.fsyncs.Add(1)
	return err
}

func (f *countingFS) List() ([]string, error) {
	t := time.Now()
	paths, err := f.VFS.List()
	f.c.listNS.Add(int64(time.Since(t)))
	f.c.lists.Add(1)
	return paths, err
}
