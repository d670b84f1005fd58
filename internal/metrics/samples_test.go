package metrics

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

func TestSamplingDisabledByDefault(t *testing.T) {
	c := NewCollector("wl")
	c.Op("op").Observe(time.Millisecond)
	c.SetElapsed(time.Second)
	if r := c.Snapshot(); r.Samples != nil {
		t.Fatalf("Samples captured without EnableSampling: %+v", r.Samples)
	}
}

func TestSamplingCapturesAllPaths(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(64)

	// Every way into the record path: collector handles (minted twice),
	// private shard, substrate shard, datagen.
	c.Op("read").Observe(time.Millisecond)
	c.Op("read").Observe(2 * time.Millisecond)
	c.Shard().Op("read").Observe(3 * time.Millisecond)
	sub := c.SubstrateShard()
	sub.Op("echo").Observe(4 * time.Millisecond)
	c.RecordDatagen(5*time.Millisecond, 10)

	c.SetElapsed(time.Second)
	r := c.Snapshot()
	byKey := map[string]OpSamples{}
	for _, s := range r.Samples {
		byKey[fmt.Sprintf("%s/%v", s.Op, s.Substrate)] = s
	}
	if s := byKey["read/false"]; len(s.Samples) != 3 {
		t.Errorf("read stream: %d samples, want 3 (merged across shards): %+v", len(s.Samples), s)
	}
	if s := byKey["echo/true"]; len(s.Samples) != 1 || s.Samples[0].Value != int64(4*time.Millisecond) {
		t.Errorf("substrate echo stream: %+v", s)
	}
	if s := byKey["datagen/true"]; len(s.Samples) != 1 {
		t.Errorf("datagen stream: %+v", s)
	}
	for _, s := range r.Samples {
		if s.Dropped != 0 {
			t.Errorf("%s: %d dropped with roomy buffers", s.Op, s.Dropped)
		}
	}
}

func TestSamplingDropsAtCapacityExactly(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(8)
	op := c.Op("op")
	for i := 0; i < 20; i++ {
		op.Observe(time.Duration(i+1) * time.Microsecond)
	}
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if len(r.Samples) != 1 {
		t.Fatalf("streams: %+v", r.Samples)
	}
	s := r.Samples[0]
	if len(s.Samples) != 8 || s.Dropped != 12 {
		t.Fatalf("capacity 8, 20 observations: %d kept, %d dropped", len(s.Samples), s.Dropped)
	}
	// The first capacity observations are the ones kept, in order.
	for i, smp := range s.Samples {
		if smp.Value != int64(time.Duration(i+1)*time.Microsecond) {
			t.Fatalf("sample %d: %d", i, smp.Value)
		}
	}
	// Histogram still saw every observation.
	if r.Ops[0].Count != 20 {
		t.Fatalf("histogram count %d, want 20", r.Ops[0].Count)
	}
}

func TestSamplingDeterministicAcrossShardCounts(t *testing.T) {
	// The same logical observations through 1, 2 and 8 shards, under a
	// frozen clock, must drain to the same multiset of samples — the
	// property that makes blob digests worker-count independent.
	run := func(shardCount int) []OpSamples {
		c := NewCollector("wl")
		t0 := time.Unix(0, 0)
		c.SetClock(func() time.Time { return t0 })
		c.EnableSampling(1024)
		var wg sync.WaitGroup
		for w := 0; w < shardCount; w++ {
			sh := c.Shard()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				op := sh.Op("op")
				for i := w; i < 256; i += shardCount {
					op.Observe(time.Duration(i+1) * time.Microsecond)
				}
			}(w)
		}
		wg.Wait()
		c.SetElapsed(time.Second)
		return c.Snapshot().Samples
	}
	canon := func(ss []OpSamples) []OpSamples {
		for _, s := range ss {
			sort.Slice(s.Samples, func(a, b int) bool { return s.Samples[a].Value < s.Samples[b].Value })
		}
		return ss
	}
	want := canon(run(1))
	for _, n := range []int{2, 8} {
		got := canon(run(n))
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d streams, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Op != want[i].Op || len(got[i].Samples) != len(want[i].Samples) {
				t.Fatalf("%d shards: stream %d mismatch", n, i)
			}
			for j := range got[i].Samples {
				if got[i].Samples[j] != want[i].Samples[j] {
					t.Fatalf("%d shards: sample %d/%d differs", n, i, j)
				}
			}
		}
	}
}

func TestSamplingConcurrentSnapshot(t *testing.T) {
	// Snapshot while observations are in flight must be safe (race step
	// runs this under -race) and never report more kept samples than
	// capacity.
	c := NewCollector("wl")
	c.EnableSampling(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		sh := c.Shard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := sh.Op("op")
			for {
				select {
				case <-stop:
					return
				default:
					op.Observe(time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		r := c.Snapshot()
		for _, s := range r.Samples {
			if len(s.Samples) > 4*128 {
				t.Errorf("stream overflow: %d samples", len(s.Samples))
			}
		}
	}
	close(stop)
	wg.Wait()
}

// steppingClock returns a clock that advances 1ms on every read.
func steppingClock() func() time.Time {
	t := time.Unix(100, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSamplingOffsetsUseInjectedClock(t *testing.T) {
	c := NewCollector("wl")
	c.SetClock(steppingClock())
	c.EnableSampling(16) // the origin is one read
	op := c.Op("op")
	op.Observe(time.Microsecond)
	op.Observe(time.Microsecond)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	s := r.Samples[0]
	if s.Samples[0].Offset != int64(time.Millisecond) || s.Samples[1].Offset != int64(2*time.Millisecond) {
		t.Fatalf("samples %v, want offsets 1ms/2ms", s.Samples)
	}
}

// TestHandlesReadTheCollectorClock: a StartTimer/ObserveSince pair reads
// the clock SetClock installed — on the default shard NewCollector minted
// before the call and on a shard minted after it — so with a clock that
// steps 1ms per read every pair records exactly 1ms. A shard no collector
// minted and a nil collector read the wall clock.
func TestHandlesReadTheCollectorClock(t *testing.T) {
	c := NewCollector("wl")
	c.SetClock(steppingClock())
	for _, op := range []OpRef{c.Op("def"), c.Shard().Op("worker")} {
		op.ObserveSince(op.StartTimer())
	}
	for _, st := range c.Snapshot().Ops {
		if st.Count != 1 || st.Max != time.Millisecond {
			t.Fatalf("%s: %d observation(s), max %v; want one of exactly 1ms", st.Op, st.Count, st.Max)
		}
	}
	if got := c.Now().Sub(c.Now()); got != -time.Millisecond {
		t.Fatalf("Now does not read the collector clock: consecutive reads differ by %v", got)
	}
	if new(Shard).Op("x").StartTimer().IsZero() || (*Collector)(nil).Now().IsZero() {
		t.Fatal("a shard without a collector and a nil collector must read the wall clock")
	}
}

// TestSleepUntilFollowsTheClock: on the wall clock (a nil collector's too)
// SleepUntil sleeps to its time and a cancel cuts the sleep short; under an
// injected clock it returns at once, since a wall sleep cannot advance it.
func TestSleepUntilFollowsTheClock(t *testing.T) {
	ctx := context.Background()
	frozen := NewCollector("wl")
	frozen.SetClock(steppingClock())
	for _, c := range []*Collector{nil, NewCollector("wl"), frozen} {
		t0 := time.Now()
		if _, err := c.SleepUntil(ctx, c.Now().Add(20*time.Millisecond), nil); err != nil {
			t.Fatal(err)
		}
		if slept := time.Since(t0); (c == frozen) != (slept < 20*time.Millisecond) {
			t.Fatalf("injected clock %v: slept %v toward a time 20ms ahead", c == frozen, slept)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	t0 := time.Now()
	if _, err := (*Collector)(nil).SleepUntil(cancelled, time.Now().Add(time.Minute), nil); err != context.Canceled {
		t.Fatalf("cancelled sleep returned %v, want ctx.Err()", err)
	}
	if slept := time.Since(t0); slept > time.Second {
		t.Fatalf("cancelled sleep took %v", slept)
	}
}

// TestSleepUntilTimerReuse: the timer one sleep returns is the one the next
// sleep waits on, and a cancelled context cuts a long sleep on it short.
func TestSleepUntilTimerReuse(t *testing.T) {
	ctx := context.Background()
	var wall *Collector
	timer, err := wall.SleepUntil(ctx, time.Now().Add(time.Millisecond), nil)
	if err != nil || timer == nil {
		t.Fatalf("first sleep: timer %v, err %v; want a timer and nil", timer, err)
	}
	if again, _ := wall.SleepUntil(ctx, time.Now().Add(time.Millisecond), timer); again != timer {
		t.Fatal("the second sleep did not reuse the first one's timer")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	t0 := time.Now()
	if _, err := wall.SleepUntil(cancelled, time.Now().Add(time.Minute), timer); err != context.Canceled {
		t.Fatalf("cancelled sleep returned %v, want context.Canceled", err)
	}
	if slept := time.Since(t0); slept > time.Second {
		t.Fatalf("cancelled sleep took %v", slept)
	}
}

// TestSleepUntilZeroAlloc pins "no pacer allocates per sleep": once the
// first sleep has made the timer, a sleep on the wall clock allocates
// nothing.
func TestSleepUntilZeroAlloc(t *testing.T) {
	ctx := context.Background()
	var wall *Collector
	timer, _ := wall.SleepUntil(ctx, time.Now().Add(50*time.Microsecond), nil)
	allocs := testing.AllocsPerRun(1, func() {
		for range 100 {
			timer, _ = wall.SleepUntil(ctx, time.Now().Add(50*time.Microsecond), timer)
		}
	})
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.0f)", allocs)
	}
	if allocs != 0 {
		t.Fatalf("100 pacing sleeps made %.0f allocations after the first, want 0", allocs)
	}
}

func TestSamplingDefaultCapacity(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(0)
	op := c.Op("op")
	op.Observe(time.Microsecond)
	c.SetElapsed(time.Second)
	if r := c.Snapshot(); len(r.Samples) != 1 || len(r.Samples[0].Samples) != 1 {
		t.Fatalf("default-capacity capture lost the observation: %+v", r.Samples)
	}
}

// TestHandlesAreFreeUntilUsed: minting a handle costs a map slot, not a
// histogram or a capture buffer, so stacks can bind every label they might
// record up front; a label nobody observed is not an operation and never
// reaches a Result, and the first observation creates its row and series.
func TestHandlesAreFreeUntilUsed(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(0)
	var refs [64]OpRef
	s := c.SubstrateShard()
	for i := range refs {
		refs[i] = s.Op(fmt.Sprintf("op-%02d", i))
	}
	// Minting allocated no recording state: no histogram, no buffer.
	for op, cell := range *s.lat.Load() {
		if cell.state.Load() != nil {
			t.Fatalf("minting %s installed its recording state", op)
		}
	}
	c.SetElapsed(time.Second)
	if r := c.Snapshot(); len(r.Ops) != 0 || len(r.Samples) != 0 {
		t.Fatalf("never-observed labels reached the result: ops %+v, %d series", r.Ops, len(r.Samples))
	}

	refs[7].Observe(3 * time.Millisecond)
	r := c.Snapshot()
	if len(r.Ops) != 1 || r.Ops[0].Op != "op-07" || r.Ops[0].Count != 1 {
		t.Fatalf("ops after the first observation: %+v", r.Ops)
	}
	if len(r.Samples) != 1 || r.Samples[0].Op != "op-07" || len(r.Samples[0].Samples) != 1 ||
		r.Samples[0].Samples[0].Value != int64(3*time.Millisecond) {
		t.Fatalf("series after the first observation: %+v", r.Samples)
	}
}

// TestFirstObservationRace: concurrent first observers of one handle must
// all record into the one state the first of them installs, so no
// observation and no sample is lost.
func TestFirstObservationRace(t *testing.T) {
	const labels, writers = 200, 8
	c := NewCollector("wl")
	c.EnableSampling(writers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < labels; i++ {
		ref := c.Op(fmt.Sprintf("op-%03d", i))
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				ref.Observe(time.Microsecond)
			}()
		}
	}
	close(start)
	wg.Wait()
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if len(r.Ops) != labels || len(r.Samples) != labels {
		t.Fatalf("%d ops, %d series, want %d each", len(r.Ops), len(r.Samples), labels)
	}
	for i, op := range r.Ops {
		if op.Count != writers || len(r.Samples[i].Samples) != writers || r.Samples[i].Dropped != 0 {
			t.Fatalf("%s: count %d, %d samples, %d dropped, want %d/%d/0",
				op.Op, op.Count, len(r.Samples[i].Samples), r.Samples[i].Dropped, writers, writers)
		}
	}
}

// TestSampleQuantilesAgreeWithHistogram cross-checks the two quantile
// sources a run carries. With nothing dropped, the nearest-rank quantile of
// the captured stream (what `bdbench compare` recomputes) and the same op's
// OpStats quantile (what the reporters print) pick the same observation, so
// they differ only by the histogram's rounding to its bucket middle: at
// most 1/64 of the value either side.
func TestSampleQuantilesAgreeWithHistogram(t *testing.T) {
	const n = 20000
	g := stats.NewRNG(7)
	for _, stream := range []struct {
		name string
		draw func() time.Duration
	}{
		{"uniform", func() time.Duration { return time.Duration(g.Int64N(int64(10 * time.Millisecond))) }},
		{"heavy-tailed", func() time.Duration { return time.Duration(50e3 * math.Exp(2*g.NormFloat64())) }},
		{"single-value", func() time.Duration { return 1234567 }},
	} {
		name := stream.name
		c := NewCollector("wl")
		c.EnableSampling(n)
		op := c.Op(name)
		for i := 0; i < n; i++ {
			op.Observe(stream.draw())
		}
		c.SetElapsed(time.Second)
		r := c.Snapshot()
		if len(r.Samples) != 1 || r.Samples[0].Dropped != 0 || len(r.Samples[0].Samples) != n {
			t.Fatalf("%s: stream not captured whole: %+v", name, r.Samples)
		}
		vals := make([]int64, n)
		for i, smp := range r.Samples[0].Samples {
			vals[i] = smp.Value
		}
		slices.Sort(vals)
		st := r.Ops[0]
		for _, q := range []struct {
			q    float64
			hist time.Duration
		}{{0.50, st.P50}, {0.95, st.P95}, {0.99, st.P99}} {
			raw := time.Duration(vals[int(math.Ceil(q.q*n))-1])
			if q.hist < raw-raw/64 || q.hist > raw+raw/64 {
				t.Errorf("%s p%.0f: stream %v, histogram %v, more than raw/64 apart",
					name, q.q*100, raw, q.hist)
			}
		}
	}
}

// bufOf is the capture buffer of the (observed, capturing) cell behind ref.
func bufOf(ref OpRef) *sampleBuf { return ref.cell.state.Load().buf }

// slotsAllocated is the number of slots b holds across its installed
// segments, and how many segments that is.
func slotsAllocated(b *sampleBuf) (slots, segments int) {
	for k := range b.segs {
		if seg := b.segs[k].Load(); seg != nil {
			slots += len(*seg)
			segments++
		}
	}
	return slots, segments
}

// segmentsFor is how many segments n kept samples need: the smallest k with
// firstSegment·(2^k−1) ≥ n, at least the one a cell is born with. It never
// exceeds ⌈log2(n/firstSegment)⌉+1.
func segmentsFor(n int) int {
	k := 1
	for firstSegment*(1<<k-1) < n {
		k++
	}
	return k
}

// TestSampleBufProperty checks the segmented buffer over the space of
// capacities, observation counts and writer counts rather than at three
// examples: what is drained is what was recorded (a capacity-sized part of
// it once the cell is full), every writer's observations keep their order,
// Dropped is exact, and the slots allocated never exceed capacity nor twice
// what was kept plus the first segment. A concurrent Snapshot runs
// throughout, so `make race` watches the claim, grow and drain paths
// together.
func TestSampleBufProperty(t *testing.T) {
	g := stats.NewRNG(16)
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		var capacity int
		switch trial % 5 {
		case 0:
			capacity = 1
		case 1:
			capacity = 2 + g.IntN(firstSegment-2) // below the first segment
		case 2:
			capacity = firstSegment<<g.IntN(5) + 1 + g.IntN(firstSegment-2) // never a power of two
		case 3:
			capacity = firstSegment * (1<<(1+g.IntN(5)) - 1) // ends exactly on a segment boundary
		case 4:
			capacity = DefaultSampleCapacity
		}
		var n int
		switch g.IntN(4) {
		case 0:
			n = g.IntN(capacity + 1) // at or under capacity
		case 1:
			n = capacity
		case 2:
			n = capacity + 1 + g.IntN(capacity+firstSegment)
		case 3:
			n = 1 + g.IntN(min(capacity, 4*firstSegment)) // a barely used cell
		}
		writers := 1 + g.IntN(8)
		name := fmt.Sprintf("cap=%d/n=%d/writers=%d", capacity, n, writers)

		c := NewCollector("wl")
		c.EnableSampling(capacity)
		ref := c.Op("op")
		done := make(chan struct{})
		var snaps sync.WaitGroup
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				for _, s := range c.Snapshot().Samples {
					if len(s.Samples) > capacity {
						t.Errorf("%s: mid-run snapshot holds %d samples", name, len(s.Samples))
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		// Observation i (1-based, so no recorded value is a slot's zero) is
		// made by writer i mod writers, each in increasing i.
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w + 1; i <= n; i += writers {
					ref.Observe(time.Duration(i))
				}
			}(w)
		}
		wg.Wait()
		close(done)
		snaps.Wait()

		c.SetElapsed(time.Second)
		r := c.Snapshot()
		kept := min(n, capacity)
		if n == 0 {
			if len(r.Samples) != 0 {
				t.Fatalf("%s: series without an observation: %+v", name, r.Samples)
			}
			continue
		}
		if len(r.Samples) != 1 {
			t.Fatalf("%s: %d series", name, len(r.Samples))
		}
		s := r.Samples[0]
		if len(s.Samples) != kept || s.Dropped != uint64(n-kept) {
			t.Fatalf("%s: kept %d samples, dropped %d; want %d, %d",
				name, len(s.Samples), s.Dropped, kept, n-kept)
		}
		seen := make(map[int64]bool, kept)
		last := make([]int64, writers)
		for _, smp := range s.Samples {
			v := smp.Value
			if v < 1 || v > int64(n) || seen[v] {
				t.Fatalf("%s: drained %d, which was not recorded or was drained twice", name, v)
			}
			seen[v] = true
			w := int(v-1) % writers
			if v < last[w] {
				t.Fatalf("%s: writer %d's observation %d drained after its %d", name, w, v, last[w])
			}
			last[w] = v
		}
		slots, segments := slotsAllocated(bufOf(ref))
		if slots > capacity || slots < kept || slots >= 2*kept+firstSegment {
			t.Fatalf("%s: %d slots allocated for %d kept samples", name, slots, kept)
		}
		if segments != segmentsFor(kept) {
			t.Fatalf("%s: %d segments installed for %d kept samples, want %d", name, segments, kept, segmentsFor(kept))
		}
	}
}

// TestCaptureCostFollowsObservations: capture memory is a function of what
// a cell observed, not of the capacity it was allowed. The bounds are
// relative to the buffer's own geometry so they hold on any Go version's
// size classes.
func TestCaptureCostFollowsObservations(t *testing.T) {
	st := &samplingState{capacity: DefaultSampleCapacity, start: time.Now()}
	// What the buffer costs beyond its slots: the header, and a slice box
	// for every segment after the first.
	const header = unsafe.Sizeof(sampleBuf{})
	const box = unsafe.Sizeof([]slot(nil))
	const slotBytes = unsafe.Sizeof(slot{})

	// The eager buffer this replaced cost three objects (header, offsets,
	// values) and 2·8·capacity bytes whatever the cell saw.
	// With the collector off: a garbage collection during the measurement
	// adds a few allocations now and then (205 in about one run of 150).
	var keep *sampleBuf
	gc := debug.SetGCPercent(-1)
	objs := testing.AllocsPerRun(1, func() {
		for range 100 {
			keep = new(sampleBuf).init(st, nil)
			keep.record(time.Microsecond)
		}
	})
	debug.SetGCPercent(gc)
	if objs != 2*100 && !raceflag.Enabled {
		t.Errorf("100 cells with one observation each allocate %.0f objects for capture, want 200 (a header and a first segment each)", objs)
	}

	for _, n := range []int{1, firstSegment, firstSegment + 1, 1000, 5000, DefaultSampleCapacity / 2, DefaultSampleCapacity, DefaultSampleCapacity + 100} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := new(sampleBuf).init(st, nil)
		for i := 0; i < n; i++ {
			b.record(time.Microsecond)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(b)
		if raceflag.Enabled {
			continue // the detector's own bookkeeping shows up in TotalAlloc
		}
		got := after.TotalAlloc - before.TotalAlloc
		kept := min(n, DefaultSampleCapacity)
		// Size classes round an object up by at most an eighth.
		limit := uint64(2*slotBytes*uintptr(kept)+firstSegment*slotBytes+header+box*maxSegments) * 9 / 8
		if got > limit {
			t.Errorf("%d observations: capture allocated %d bytes, want at most %d", n, got, limit)
		}
		if n == 1 && got >= 4000 {
			t.Errorf("a cell with one observation costs %d bytes of capture, want under 4 kB", got)
		}
		if n >= DefaultSampleCapacity && got < uint64(DefaultSampleCapacity*slotBytes) {
			t.Errorf("a full cell allocated %d bytes, less than its %d slots", got, DefaultSampleCapacity)
		}
	}
}
