package metrics

import (
	"math/bits"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/bdbench/bdbench/internal/raceflag"
)

// zeroAllocCalls is how many calls of f assertZeroAllocs measures as one
// run.
const zeroAllocCalls = 1000

// assertZeroAllocs holds the exact zero-allocation contract: zeroAllocCalls
// calls of f, measured as one testing.AllocsPerRun run, allocate nothing.
// AllocsPerRun's own average over many runs truncates, so it reads 0 for
// an allocation on all but one of them; one run of many calls keeps the
// fraction. AllocsPerRun's warm-up pass makes the same calls first, so it
// installs every histogram page and capture segment the measured calls
// reach, provided f observes the same latency ranges on every call and its
// capture buffer has room for both passes. Under -race the hot path still
// executes (so the race step covers it) but the count is not asserted —
// the detector's own bookkeeping shows up in the measurement.
func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(1, func() {
		for range zeroAllocCalls {
			f()
		}
	}) / zeroAllocCalls
	if raceflag.Enabled {
		t.Skipf("%s: allocation counts not asserted under -race (measured %.4f)", what, allocs)
	}
	if allocs != 0 {
		t.Errorf("%s: %.4f allocs/op in steady state, want 0", what, allocs)
	}
}

// sinceStart is a start time ObserveSince measures from in a zero-allocation
// loop: 1.5 s back, the elapsed time stays inside the power of two
// [2³⁰, 2³¹) ns — one histogram page — for the next 0.6 s. From a start of
// now it would cross into a new page at every doubling of the loop's age.
func sinceStart() time.Time { return time.Now().Add(-1500 * time.Millisecond) }

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

// TestOpRefZeroAlloc: the pre-resolved handles never allocate once their
// label has been observed.
func TestOpRefZeroAlloc(t *testing.T) {
	s := NewCollector("wl").Shard()
	op := s.Op("op")
	op.Observe(time.Millisecond) // first use installs the histogram
	ctr := s.CounterRef("records")
	start := sinceStart()
	assertZeroAllocs(t, "OpRef/CounterRef", func() {
		op.Observe(time.Microsecond)
		op.ObserveSince(start)
		ctr.Add(1)
	})
}

// TestOpRefSampledZeroAlloc: the record path must stay allocation-free with
// raw sample capture enabled between the buffer's growth steps — two
// atomic stores on top of the histogram adds: always-on capture without
// becoming the GC pressure the benchmark is measuring. The cell is filled to
// the start of segment 7, whose 8 192 slots take the three measurements'
// 6 000 samples; TestSampleBufGrowthSteps bounds what the growth steps cost.
func TestOpRefSampledZeroAlloc(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(1 << 16)
	op := c.Op("op")
	op.Observe(time.Millisecond) // first use installs histogram and buffer
	const k = 7
	for i := uint64(0); i < segmentStart(k); i++ {
		op.Observe(time.Microsecond) // the last one installs segment k
	}
	ctr := c.CounterRef("records")
	start := sinceStart()
	assertZeroAllocs(t, "OpRef.Observe (sampling on)", func() {
		op.Observe(time.Microsecond)
		ctr.Add(1)
	})
	assertZeroAllocs(t, "OpRef.ObserveSince (sampling on)", func() {
		op.ObserveSince(start)
	})
	assertZeroAllocs(t, "Collector.Op + Observe (sampling on)", func() {
		c.Op("op").Observe(time.Microsecond)
	})
	if _, segments := slotsAllocated(bufOf(op)); segments != k+1 {
		t.Fatalf("the measured calls crossed into segment %d", segments-1)
	}
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
	const k = 5 // segment 5 holds 2048 slots; assertZeroAllocs makes 2000 calls
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
	st := &samplingState{capacity: DefaultSampleCapacity, start: time.Now()}
	for _, n := range []int{1, 64, 65, 1000, 4032, 4033, DefaultSampleCapacity + 7} {
		var b *sampleBuf
		allocs := testing.AllocsPerRun(1, func() {
			b = new(sampleBuf).init(st, nil)
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

// TestFirstObservationCost: a cell's first observation allocates its state
// once — the histogram with its inline page, at most 1 KiB — and, with
// capture on, the buffer header inside that same object and the first
// segment beside it.
func TestFirstObservationCost(t *testing.T) {
	const capture = unsafe.Sizeof(sampleBuf{}) + firstSegment*unsafe.Sizeof(slot{})
	for _, sampled := range []bool{false, true} {
		c := NewCollector("wl")
		if sampled {
			c.EnableSampling(0)
		}
		op := c.Op("op")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op.Observe(141300 * time.Microsecond)
		runtime.ReadMemStats(&after)
		if raceflag.Enabled {
			continue // the detector's own bookkeeping shows up in the counts
		}
		objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		wantObjs, limit := uint64(1), uint64(1024)
		if sampled {
			// Size classes round an object up by at most an eighth.
			wantObjs, limit = 2, limit+uint64(capture)*9/8
		}
		if objs != wantObjs || bytes > limit {
			t.Errorf("sampling %v: the first observation allocated %d objects, %d bytes; want %d, at most %d",
				sampled, objs, bytes, wantObjs, limit)
		}
	}
}

// TestOpRefPagesAllocateOnFirstUse: a cell that observed k ranges (page 0 is
// [0, 32) ns, page k ≥ 1 the power of two [2^(k+4), 2^(k+5))) has paid for
// its state and k−1 pages — one allocation per range after the first, the
// first being the highest, so the inline page is not tied to page 0 — and
// observing again inside them allocates nothing.
func TestOpRefPagesAllocateOnFirstUse(t *testing.T) {
	const pages = 38
	pageValue := func(k int) time.Duration {
		if k == 0 {
			return 0
		}
		return time.Duration(1) << (k + 4)
	}
	for _, k := range []int{1, 2, 5, pages} {
		var c *opCell
		allocs := testing.AllocsPerRun(1, func() {
			c = &opCell{}
			for p := k - 1; p >= 0; p-- {
				c.observe(pageValue(p))
			}
		})
		if !raceflag.Enabled && allocs != float64(k+1) {
			t.Errorf("%d ranges: %.0f allocations, want the cell, its state and %d pages", k, allocs, k-1)
		}
		if n := c.state.Load().hist.Snapshot().Count(); n != uint64(k) {
			t.Fatalf("%d ranges: %d observations recorded", k, n)
		}
		assertZeroAllocs(t, "opCell.observe (inside installed pages)", func() {
			for p := 0; p < k; p++ {
				c.observe(pageValue(p) + 1)
			}
		})
	}
}
