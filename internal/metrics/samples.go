package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Raw sample capture: an optional sink alongside the always-on histograms.
// When a collector enables sampling, every operation cell built from then on
// gets, on its first observation, a buffer of (offset, value) pairs, filled
// on the record path with two atomic stores and drained only at Snapshot —
// the same contract as the histograms, so the zero-alloc record path
// survives intact and a handle that is never used costs no buffer. The
// buffer is segmented: it starts at firstSegment slots and doubles as
// observations arrive, so a cell costs at most twice what it observed plus
// the first segment, and capacity is only where it stops growing and starts
// counting drops.
// The drained streams become Result.Samples, which internal/scenario
// persists through internal/runstore as the run's durable evidence.

// DefaultSampleCapacity is the per-operation-cell bound on kept samples used
// when sampling is enabled without an explicit capacity: a ceiling, not a
// reservation. At 16 bytes a slot, only a cell that fills up reaches 1 MiB.
const DefaultSampleCapacity = 1 << 16

// Segment geometry. Segment k holds slots [firstSegment·(2^k−1),
// firstSegment·(2^(k+1)−1)): the first has firstSegment slots and each next
// one doubles, so locating a slot is one bits.Len64 and a cell that observed
// n samples holds fewer than 2n+firstSegment slots. maxSegments covers every
// slot index below 2^63, so any int capacity fits the directory.
const (
	firstSegmentBits = 6
	firstSegment     = 1 << firstSegmentBits
	maxSegments      = 64 - firstSegmentBits
)

// samplingState is the capture configuration shared by every shard (and so
// every cell buffer) of one collector: the per-cell bound on kept samples,
// the run's origin for offsets, and the clock. The clock is injectable so
// determinism tests can freeze it; production use is time.Now.
type samplingState struct {
	capacity int
	start    time.Time
	now      func() time.Time
}

// slot is one captured observation: nanoseconds from the sampling origin and
// the latency in nanoseconds, side by side so both stores hit one cache line.
type slot struct{ off, val atomic.Int64 }

// sampleBuf is one observed operation cell's capture buffer. Writers claim a
// slot with one atomic add and fill it with two atomic stores; past capacity
// the claim counter keeps counting but nothing is written, so the drop count
// is exact. The record path never blocks or allocates except at a growth
// step: the first claim to land in a segment that does not exist yet
// installs it (grow). Reads (drain) are likewise atomic, making concurrent
// snapshot-while-recording race-clean — a drain that overlaps an in-flight
// claim may see that slot's zero value, or stop at a segment still being
// installed: the soft-read semantics Snapshot already has for histograms.
type sampleBuf struct {
	st    *samplingState
	limit uint64 // st.capacity, beside n so a full buffer's claim reads one line
	n     atomic.Uint64
	segs  [maxSegments]atomic.Pointer[[]slot]
	mu    sync.Mutex // serializes growth steps only
	first []slot     // segment 0, so an observed cell costs one slot array and no box
}

func newSampleBuf(st *samplingState) *sampleBuf {
	b := &sampleBuf{st: st, limit: uint64(st.capacity)}
	b.first = make([]slot, b.segmentLen(0))
	b.segs[0].Store(&b.first)
	return b
}

// segmentStart is the index of segment k's first slot.
func segmentStart(k int) uint64 { return firstSegment<<k - firstSegment }

// segmentLen is segment k's slot count: double the previous one, cut so the
// segments together never exceed capacity.
func (b *sampleBuf) segmentLen(k int) int {
	return int(min(uint64(firstSegment)<<k, b.limit-segmentStart(k)))
}

// record captures one observation. Between growth steps: no allocation, no
// lock — one atomic add, a locate, one atomic pointer load, two atomic stores.
//
//bdbench:hotpath
func (b *sampleBuf) record(d time.Duration) {
	idx := b.n.Add(1) - 1
	if idx >= b.limit {
		return // buffer full: counted as dropped at drain time
	}
	off := int64(b.st.now().Sub(b.st.start))
	k := bits.Len64(idx>>firstSegmentBits+1) - 1
	seg := b.segs[k].Load()
	if seg == nil {
		seg = b.grow(k)
	}
	s := &(*seg)[idx-segmentStart(k)]
	s.off.Store(off)
	s.val.Store(int64(d))
}

// grow installs segment k. Claimants that land in a missing segment queue on
// the buffer's mutex, as first observers do in opCell.install, rather than
// racing a compare-and-swap that has every loser allocate — and discard — a
// segment of its own. The caller took its duration and its offset before it
// got here, so time spent growing is never inside a recorded value.
func (b *sampleBuf) grow(k int) *[]slot {
	b.mu.Lock()
	defer b.mu.Unlock()
	if seg := b.segs[k].Load(); seg != nil {
		return seg
	}
	seg := make([]slot, b.segmentLen(k))
	b.segs[k].Store(&seg)
	return &seg
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
		filled := min(n, b.limit)
		k := sampleKey{op: op, substrate: s.substrate}
		os := dst[k]
		if os == nil {
			os = &OpSamples{Op: op, Substrate: s.substrate}
			dst[k] = os
		}
		// Segments in slot order reproduce claim order.
		for i, left := 0, filled; left > 0; i++ {
			seg := b.segs[i].Load()
			if seg == nil {
				break // claimed, not yet installed: its writers are still in flight
			}
			part := (*seg)[:min(left, uint64(len(*seg)))]
			for j := range part {
				os.Offsets = append(os.Offsets, part[j].off.Load())
				os.Values = append(os.Values, part[j].val.Load())
			}
			left -= uint64(len(part))
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
