package metrics

import (
	"sort"
	"sync/atomic"
	"time"
)

// Raw sample capture: an optional sink alongside the always-on histograms.
// When a collector enables sampling, every operation cell built from then on
// gets, on its first observation, a fixed buffer of (offset, value) pairs,
// filled on the record path with two atomic stores and drained only at
// Snapshot — the same contract as the histograms, so the zero-alloc record
// path survives intact and a handle that is never used costs no buffer.
// The drained streams become Result.Samples, which internal/scenario
// persists through internal/runstore as the run's durable evidence.

// DefaultSampleCapacity is the per-operation-cell buffer size used when
// sampling is enabled without an explicit capacity. At 16 bytes a sample, a
// full cell is 1 MiB — small next to the corpora the workloads generate.
const DefaultSampleCapacity = 1 << 16

// samplingState is the capture configuration shared by every shard (and so
// every cell buffer) of one collector: buffer capacity, the run's origin for
// offsets, and the clock. The clock is injectable so determinism tests can
// freeze it; production use is time.Now.
type samplingState struct {
	capacity int
	start    time.Time
	now      func() time.Time
}

// sampleBuf is one observed operation cell's capture buffer. Writers
// claim a slot with one atomic add and fill it with two atomic stores;
// overflow keeps counting but stops writing, so the drop count is exact and
// the record path never blocks, grows, or allocates. Reads (drain) are
// likewise atomic, making concurrent snapshot-while-recording race-clean —
// a drain that overlaps an in-flight claim may see that slot's zero value,
// the same soft-read semantics Snapshot already has for histograms.
type sampleBuf struct {
	st   *samplingState
	n    atomic.Uint64
	offs []atomic.Int64
	vals []atomic.Int64
}

func newSampleBuf(st *samplingState) *sampleBuf {
	return &sampleBuf{
		st:   st,
		offs: make([]atomic.Int64, st.capacity),
		vals: make([]atomic.Int64, st.capacity),
	}
}

// record captures one observation. Zero allocations, no locks, no growth.
//
//bdbench:hotpath
func (b *sampleBuf) record(d time.Duration) {
	idx := b.n.Add(1) - 1
	if idx >= uint64(len(b.vals)) {
		return // buffer full: counted as dropped at drain time
	}
	b.offs[idx].Store(int64(b.st.now().Sub(b.st.start)))
	b.vals[idx].Store(int64(d))
}

// OpSamples is one operation's captured raw latency stream, drained from
// every shard at Snapshot. Offsets are nanoseconds from the sampling origin
// (EnableSampling time), values are latency nanoseconds; index i of both
// slices is one observation. Excluded from JSON: the stream's durable form
// is the runstore blob, not the report document.
type OpSamples struct {
	Op        string `json:"-"`
	Substrate bool   `json:"-"`
	Offsets   []int64
	Values    []int64
	// Dropped counts observations made after the buffer filled; the stream
	// is complete when it is zero. Size buffers via EnableSampling capacity.
	Dropped uint64
}

// EnableSampling turns on raw per-op latency capture for every shard the
// collector has minted or will mint, with buffers of the given capacity per
// observed operation cell (DefaultSampleCapacity if capacity <= 0). Call it
// before workloads mint their handles: cells built before sampling was
// enabled capture nothing. Offsets are measured from the moment of the call.
func (c *Collector) EnableSampling(capacity int) {
	c.enableSampling(capacity, time.Now(), time.Now)
}

// EnableSamplingClock is EnableSampling with an injected clock — the
// determinism seam. Tests freeze now so offsets (and therefore encoded
// artifacts) are reproducible at any worker count.
func (c *Collector) EnableSamplingClock(capacity int, start time.Time, now func() time.Time) {
	c.enableSampling(capacity, start, now)
}

func (c *Collector) enableSampling(capacity int, start time.Time, now func() time.Time) {
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	st := &samplingState{capacity: capacity, start: start, now: now}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampling = st
	for _, s := range c.shards {
		s.mu.Lock()
		s.sampling = st
		s.mu.Unlock()
	}
}

// SamplingEnabled reports whether EnableSampling has been called.
func (c *Collector) SamplingEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampling != nil
}

// sampleKey merges streams for the same operation label across shards of the
// same level (user vs substrate), mirroring how drainLatencies folds
// histograms.
type sampleKey struct {
	op        string
	substrate bool
}

// drainSamples folds the shard's capture buffers into dst.
func (s *Shard) drainSamples(dst map[sampleKey]*OpSamples) {
	m := s.lat.Load()
	if m == nil {
		return
	}
	for op, cell := range *m {
		st := cell.state.Load()
		if st == nil || st.buf == nil {
			continue
		}
		b := st.buf
		n := b.n.Load()
		if n == 0 {
			continue
		}
		filled := n
		if max := uint64(len(b.vals)); filled > max {
			filled = max
		}
		k := sampleKey{op: op, substrate: s.substrate}
		os := dst[k]
		if os == nil {
			os = &OpSamples{Op: op, Substrate: s.substrate}
			dst[k] = os
		}
		for i := uint64(0); i < filled; i++ {
			os.Offsets = append(os.Offsets, b.offs[i].Load())
			os.Values = append(os.Values, b.vals[i].Load())
		}
		os.Dropped += n - filled
	}
}

// drainAllSamples merges every shard's streams into a deterministic-order
// slice for Result.Samples.
func drainAllSamples(shards []*Shard) []OpSamples {
	acc := make(map[sampleKey]*OpSamples)
	for _, s := range shards {
		s.drainSamples(acc)
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]OpSamples, 0, len(acc))
	for _, os := range acc {
		out = append(out, *os)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return !out[i].Substrate && out[j].Substrate
	})
	return out
}
