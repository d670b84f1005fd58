package metrics

import (
	"math/bits"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/raceflag"
)

// assertZeroAllocs runs f through testing.AllocsPerRun and requires a zero
// steady-state allocation count. Under -race the hot path still executes
// (so the race step covers it) but the exact count is not asserted — the
// detector's own bookkeeping shows up in the measurement.
func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(1000, f)
	if raceflag.Enabled {
		t.Skipf("%s: allocation counts not asserted under -race (measured %.1f)", what, allocs)
	}
	if allocs != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", what, allocs)
	}
}

// TestShardObserveLatencyZeroAlloc: once an operation label exists,
// minting its handle again and observing through it must not allocate — the
// zero-alloc contract of the engine → shard → histogram chain.
func TestShardObserveLatencyZeroAlloc(t *testing.T) {
	s := NewCollector("wl").Shard()
	s.Op("op").Observe(time.Millisecond) // install the label and its state
	assertZeroAllocs(t, "Shard.Op + Observe", func() {
		s.Op("op").Observe(time.Microsecond)
	})
}

// TestShardAddZeroAlloc: counter increments after the label's first use.
func TestShardAddZeroAlloc(t *testing.T) {
	s := NewCollector("wl").Shard()
	s.CounterRef("records").Add(1)
	assertZeroAllocs(t, "Shard.CounterRef + Add", func() {
		s.CounterRef("records").Add(1)
	})
}

// TestCollectorFacadeZeroAlloc: the collector's one-shot conveniences go
// through handles on its default shard and must stay allocation-free too.
func TestCollectorFacadeZeroAlloc(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveLatency("op", time.Millisecond)
	c.Add("records", 1)
	assertZeroAllocs(t, "Collector facade", func() {
		c.ObserveLatency("op", time.Microsecond)
		c.Add("records", 1)
	})
}

// TestOpRefZeroAlloc: the pre-resolved handles never allocate once their
// label has been observed.
func TestOpRefZeroAlloc(t *testing.T) {
	s := NewCollector("wl").Shard()
	op := s.Op("op")
	op.Observe(time.Millisecond) // first use installs the histogram
	ctr := s.CounterRef("records")
	start := time.Now()
	assertZeroAllocs(t, "OpRef/CounterRef", func() {
		op.Observe(time.Microsecond)
		op.ObserveSince(start)
		ctr.Add(1)
	})
}

// TestOpRefSampledZeroAlloc: the record path must stay allocation-free with
// raw sample capture enabled — the buffer is allocated by the cell's first
// observation, so steady-state recording is two atomic stores on top of the
// histogram adds: always-on capture without becoming the GC pressure the
// benchmark is measuring.
func TestOpRefSampledZeroAlloc(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(1 << 16)
	op := c.Op("op")
	op.Observe(time.Millisecond) // first use installs histogram and buffer
	ctr := c.CounterRef("records")
	start := time.Now()
	assertZeroAllocs(t, "OpRef.Observe (sampling on)", func() {
		op.Observe(time.Microsecond)
		ctr.Add(1)
	})
	assertZeroAllocs(t, "OpRef.ObserveSince (sampling on)", func() {
		op.ObserveSince(start)
	})
	assertZeroAllocs(t, "Collector.ObserveLatency (sampling on)", func() {
		c.ObserveLatency("op", time.Microsecond)
	})
}

// TestOpRefSampledZeroAllocAfterOverflow: a full buffer drops new samples on
// the claim counter alone — still zero allocations.
func TestOpRefSampledZeroAllocAfterOverflow(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(4)
	op := c.Op("op")
	for i := 0; i < 8; i++ {
		op.Observe(time.Microsecond) // overflow the 4-slot buffer
	}
	assertZeroAllocs(t, "OpRef.Observe (buffer full)", func() {
		op.Observe(time.Microsecond)
	})
}

// TestOpRefResolution covers what a handle can resolve to: a live cell
// minted by a collector, or a no-op (the zero ref, and anything minted from
// a nil collector — an uninstrumented stack).
func TestOpRefResolution(t *testing.T) {
	c := NewCollector("wl")
	ref := c.Op("read")
	if ref.cell == nil {
		t.Fatal("ref minted from a collector should be valid")
	}
	ref.Observe(time.Millisecond)
	c.CounterRef("records").Add(7)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if len(r.Ops) != 1 || r.Ops[0].Op != "read" || r.Ops[0].Count != 1 {
		t.Fatalf("direct ref observation lost: %+v", r.Ops)
	}
	if r.Counters["records"] != 7 {
		t.Fatalf("direct counter ref lost: %v", r.Counters)
	}

	var zero OpRef
	zero.Observe(time.Second)
	zero.ObserveSince(time.Now())
	if zero.cell != nil || !zero.StartTimer().IsZero() {
		t.Fatal("zero OpRef must be invalid and must not read the clock")
	}
	CounterRef{}.Add(1)
	var none *Collector
	if ref := none.SubstrateShard().Op("x"); ref.cell != nil {
		t.Fatal("a nil collector must mint no-op refs")
	}
	none.SubstrateShard().CounterRef("n").Add(1)
}

// TestOpRefSubstrateShard: refs minted from a substrate shard keep the
// shard's substrate marking at snapshot time.
func TestOpRefSubstrateShard(t *testing.T) {
	c := NewCollector("wl")
	sub := c.SubstrateShard()
	sub.Op("echo").Observe(time.Millisecond)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if len(r.Ops) != 1 || !r.Ops[0].Substrate {
		t.Fatalf("substrate marking lost through OpRef: %+v", r.Ops)
	}
	if r.Throughput != 0 {
		t.Fatalf("substrate-only observations must not feed throughput: %v", r.Throughput)
	}
}

// TestOpRefSampledZeroAllocBetweenGrowthSteps: a capture buffer allocates
// when a claim lands in a segment that does not exist yet and at no other
// time. Fill a cell to the start of a segment large enough to take the whole
// measurement, then record inside it: zero allocations. Then fill a cell to
// capacity and count what growth cost over its whole life: one segment per
// doubling, at most ⌈log2(n/firstSegment)⌉+1 of them.
func TestOpRefSampledZeroAllocBetweenGrowthSteps(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(0)
	op := c.Op("op")
	const k = 5 // segment 5 holds 2048 slots; AllocsPerRun makes 1001 calls
	for i := uint64(0); i <= segmentStart(k); i++ {
		op.Observe(time.Microsecond) // the last one installs segment k
	}
	if _, segments := slotsAllocated(bufOf(op)); segments != k+1 {
		t.Fatalf("%d segments after %d observations, want %d", segments, segmentStart(k)+1, k+1)
	}
	assertZeroAllocs(t, "OpRef.Observe (between growth steps)", func() {
		op.Observe(time.Microsecond)
	})
	if _, segments := slotsAllocated(bufOf(op)); segments != k+1 {
		t.Fatalf("the measured calls crossed into segment %d", segments-1)
	}
}

// TestSampleBufGrowthSteps counts the growth steps of a buffer over its whole
// life, filled to and past capacity: the segments are exactly what the kept
// samples need — never more than ⌈log2(n/firstSegment)⌉+1 — and a step costs
// at most a slot array and a slice box.
func TestSampleBufGrowthSteps(t *testing.T) {
	st := &samplingState{capacity: DefaultSampleCapacity, start: time.Now(), now: time.Now}
	for _, n := range []int{1, 64, 65, 1000, 4032, 4033, DefaultSampleCapacity + 7} {
		var b *sampleBuf
		allocs := testing.AllocsPerRun(1, func() {
			b = newSampleBuf(st)
			for i := 0; i < n; i++ {
				b.record(time.Microsecond)
			}
		})
		kept := min(n, DefaultSampleCapacity)
		want := segmentsFor(kept)
		if log2 := bits.Len(uint((kept-1)/firstSegment)) + 1; want > log2 {
			t.Fatalf("segmentsFor(%d) = %d exceeds ⌈log2(n/%d)⌉+1 = %d", kept, want, firstSegment, log2)
		}
		if slots, segments := slotsAllocated(b); segments != want || slots > DefaultSampleCapacity {
			t.Errorf("%d observations: %d segments holding %d slots, want %d segments", n, segments, slots, want)
		}
		if allocs > float64(2*want) && !raceflag.Enabled {
			t.Errorf("%d observations: %.0f allocations for %d segments, want at most two each", n, allocs, want)
		}
	}
}
