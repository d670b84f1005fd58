package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// OpRef is a pre-resolved handle for one operation label: the only way to
// record a latency below the collector. A worker obtains the ref once
// (Shard.Op or Collector.Op) and then observes through it with no per-call
// label lookup — provably allocation-free, so the record path cannot become
// the GC pressure it is supposed to measure. A ref is free until used: its
// histogram and its sample buffer's first segment are allocated by the first
// observation, and a label that is never observed never reaches a Result.
// The zero OpRef is a no-op, which is how uninstrumented stacks record
// nothing.
type OpRef struct{ cell *opCell }

// StartTimer reads the clock only when the ref records anywhere — the
// zero-cost start half of optional instrumentation. Pair with ObserveSince.
func (r OpRef) StartTimer() (t time.Time) {
	if r.cell != nil {
		t = time.Now()
	}
	return t
}

// Observe records one latency under the ref's operation label. Safe for
// concurrent use; a no-op on the zero ref.
//
//bdbench:hotpath
func (r OpRef) Observe(d time.Duration) {
	if c := r.cell; c != nil {
		c.observe(d)
	}
}

// ObserveSince records the time elapsed since start (see StartTimer).
//
//bdbench:hotpath
func (r OpRef) ObserveSince(start time.Time) {
	if c := r.cell; c != nil {
		c.observe(time.Since(start))
	}
}

// Histogram returns a snapshot of the latencies observed through this ref's
// cell — the same histogram Collector.Snapshot folds into the label's row.
// It is empty for the zero ref and for a label never observed.
func (r OpRef) Histogram() *stats.LatencyHistogram {
	if r.cell != nil {
		if st := r.cell.state.Load(); st != nil {
			return st.hist.Snapshot()
		}
	}
	return &stats.LatencyHistogram{}
}

// CounterRef is the counter twin of OpRef: a pre-resolved handle to one
// named counter cell. The zero CounterRef is a no-op.
type CounterRef struct{ c *atomic.Int64 }

// Add increments the ref's counter by delta. Safe for concurrent use; a
// no-op on the zero ref.
//
//bdbench:hotpath
func (r CounterRef) Add(delta int64) {
	if r.c != nil {
		r.c.Add(delta)
	}
}

// latMap and ctrMap are the copy-on-write map types behind a shard. A
// published map value is immutable: inserting a new operation or counter
// label copies the map under the shard's mutex and atomically swaps the
// pointer, so the lock-free fast path only ever reads frozen maps.
type (
	latMap map[string]*opCell
	ctrMap map[string]*atomic.Int64
)

// opCell is one operation label's slot in a shard. Minting a handle costs
// only this slot: the recording state behind it is installed by the label's
// first observation.
type opCell struct {
	sampling *samplingState // capture config when the cell was built; nil = histogram only
	state    atomic.Pointer[opState]
	mu       sync.Mutex // serializes the first observers; never taken again
}

// opState is what a label owns once it has been observed: the always-on
// atomic histogram plus, when the shard was capturing, a raw sample buffer.
type opState struct {
	hist stats.AtomicLatencyHistogram
	buf  *sampleBuf
}

// observe is the record hot path: one atomic pointer load and a handful of
// atomic adds, plus a slot claim and two atomic stores into the sample
// buffer when capture is on. It allocates at the cell's first observation
// (install) and at each of the buffer's few growth steps (sampleBuf.grow),
// never between them (TestOpRefSampledZeroAlloc and
// TestOpRefSampledZeroAllocBetweenGrowthSteps hold it to that; bdvet's
// hotpath analyzer holds it statically).
//
//bdbench:hotpath
func (c *opCell) observe(d time.Duration) {
	st := c.state.Load()
	if st == nil {
		st = c.install()
	}
	st.hist.Observe(d)
	if b := st.buf; b != nil {
		b.record(d)
	}
}

// install allocates the cell's recording state on its first observation:
// the histogram and, when capturing, a sample buffer holding its first
// segment (later segments are sampleBuf.grow's). Concurrent first observers
// queue on the cell's mutex rather than racing a compare-and-swap: zeroing
// a histogram takes far longer than an operation, so a racing design has
// every loser allocate — and discard — a state of its own.
func (c *opCell) install() *opState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.state.Load(); st != nil {
		return st
	}
	st := &opState{}
	if c.sampling != nil {
		st.buf = newSampleBuf(c.sampling)
	}
	c.state.Store(st)
	return st
}

// Shard is a contention-free recording handle. Each worker goroutine of a
// parallel stack obtains its own shard (Collector.Shard, or SubstrateShard
// for stack-internal measurement) and mints its OpRef/CounterRef handles
// there, so hot operation loops never serialize on a shared lock: recording
// an observation is a handful of atomic adds on cells private to the shard.
// Shards are nevertheless safe for concurrent use — a snapshot may race with
// in-flight observes and writers may share a shard — because every cell is
// atomic; the per-shard mutex guards only the rare copy-on-write insertion
// of a new operation or counter label. A nil *Shard mints zero (no-op)
// handles.
type Shard struct {
	mu       sync.Mutex // serializes copy-on-write map growth only
	lat      atomic.Pointer[latMap]
	counters atomic.Pointer[ctrMap]
	// substrate marks stack-internal shards whose latency observations are
	// kept out of the Throughput total (see Collector.SubstrateShard).
	substrate bool
	// sampling, when non-nil, makes every operation cell built from now on
	// capture raw samples (see Collector.EnableSampling). Set before the
	// shard's handles are minted; cells built earlier capture nothing.
	sampling *samplingState
}

// Op mints a pre-resolved handle for the operation label, installing its
// cell if this is the label's first use. Hot loops resolve once, then
// observe lock-free through the handle with no per-call map lookup.
func (s *Shard) Op(name string) OpRef {
	if s == nil {
		return OpRef{}
	}
	if m := s.lat.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return OpRef{cell: c}
		}
	}
	return OpRef{cell: s.latSlow(name)}
}

// latSlow installs the cell for a new operation label (copy-on-write).
func (s *Shard) latSlow(op string) *opCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.lat.Load()
	if old != nil {
		if c, ok := (*old)[op]; ok {
			return c
		}
	}
	next := make(latMap, 1+lenOf(old))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := &opCell{sampling: s.sampling}
	next[op] = c
	s.lat.Store(&next)
	return c
}

// CounterRef mints a pre-resolved handle for the named counter cell,
// installing it if this is the counter's first use.
func (s *Shard) CounterRef(name string) CounterRef {
	if s == nil {
		return CounterRef{}
	}
	if m := s.counters.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return CounterRef{c: c}
		}
	}
	return CounterRef{c: s.counterSlow(name)}
}

// counterSlow installs the cell for a new counter label (copy-on-write).
func (s *Shard) counterSlow(counter string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.counters.Load()
	if old != nil {
		if c, ok := (*old)[counter]; ok {
			return c
		}
	}
	next := make(ctrMap, 1+lenOf(old))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := &atomic.Int64{}
	next[counter] = c
	s.counters.Store(&next)
	return c
}

// drainLatencies folds the histograms of the shard's observed labels into
// dst, minting plain histograms on demand. A label that was minted but
// never observed is skipped: it is not an operation.
func (s *Shard) drainLatencies(dst map[string]*stats.LatencyHistogram) {
	m := s.lat.Load()
	if m == nil {
		return
	}
	for op, c := range *m {
		st := c.state.Load()
		if st == nil {
			continue
		}
		snap := st.hist.Snapshot()
		if snap.Count() == 0 {
			continue // first observation still in flight
		}
		if h, ok := dst[op]; ok {
			h.Merge(snap)
		} else {
			dst[op] = snap
		}
	}
}

// drainCounters folds the shard's counters into dst.
func (s *Shard) drainCounters(dst map[string]int64) {
	m := s.counters.Load()
	if m == nil {
		return
	}
	for name, c := range *m {
		dst[name] += c.Load()
	}
}

func lenOf[M ~map[string]V, V any](m *M) int {
	if m == nil {
		return 0
	}
	return len(*m)
}
