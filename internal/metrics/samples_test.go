package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

func TestSamplingDisabledByDefault(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveLatency("op", time.Millisecond)
	c.SetElapsed(time.Second)
	if r := c.Snapshot(); r.Samples != nil {
		t.Fatalf("Samples captured without EnableSampling: %+v", r.Samples)
	}
	if c.SamplingEnabled() {
		t.Fatal("SamplingEnabled true before EnableSampling")
	}
}

func TestSamplingCapturesAllPaths(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(64)
	if !c.SamplingEnabled() {
		t.Fatal("SamplingEnabled false after EnableSampling")
	}

	// Every way into the record path: collector convenience, collector
	// handle, private shard, substrate shard, datagen.
	c.ObserveLatency("read", time.Millisecond)
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
	if s := byKey["read/false"]; len(s.Values) != 3 {
		t.Errorf("read stream: %d samples, want 3 (merged across shards): %+v", len(s.Values), s)
	}
	if s := byKey["echo/true"]; len(s.Values) != 1 || s.Values[0] != int64(4*time.Millisecond) {
		t.Errorf("substrate echo stream: %+v", s)
	}
	if s := byKey["datagen/true"]; len(s.Values) != 1 {
		t.Errorf("datagen stream: %+v", s)
	}
	for _, s := range r.Samples {
		if len(s.Offsets) != len(s.Values) {
			t.Errorf("%s: %d offsets vs %d values", s.Op, len(s.Offsets), len(s.Values))
		}
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
	if len(s.Values) != 8 || s.Dropped != 12 {
		t.Fatalf("capacity 8, 20 observations: %d kept, %d dropped", len(s.Values), s.Dropped)
	}
	// The first capacity observations are the ones kept, in order.
	for i, v := range s.Values {
		if v != int64(time.Duration(i+1)*time.Microsecond) {
			t.Fatalf("sample %d: %d", i, v)
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
		c.EnableSamplingClock(1024, t0, func() time.Time { return t0 })
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
		for i := range ss {
			s := &ss[i]
			idx := make([]int, len(s.Values))
			for j := range idx {
				idx[j] = j
			}
			sort.Slice(idx, func(a, b int) bool { return s.Values[idx[a]] < s.Values[idx[b]] })
			vals := make([]int64, len(idx))
			offs := make([]int64, len(idx))
			for j, k := range idx {
				vals[j], offs[j] = s.Values[k], s.Offsets[k]
			}
			s.Values, s.Offsets = vals, offs
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
			if got[i].Op != want[i].Op || len(got[i].Values) != len(want[i].Values) {
				t.Fatalf("%d shards: stream %d mismatch", n, i)
			}
			for j := range got[i].Values {
				if got[i].Values[j] != want[i].Values[j] || got[i].Offsets[j] != want[i].Offsets[j] {
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
	c.Start()
	for i := 0; i < 50; i++ {
		r := c.Snapshot()
		for _, s := range r.Samples {
			if len(s.Values) > 4*128 {
				t.Errorf("stream overflow: %d samples", len(s.Values))
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestSamplingOffsetsUseInjectedClock(t *testing.T) {
	c := NewCollector("wl")
	t0 := time.Unix(100, 0)
	tick := int64(0)
	c.EnableSamplingClock(16, t0, func() time.Time {
		tick++
		return t0.Add(time.Duration(tick) * time.Millisecond)
	})
	op := c.Op("op")
	op.Observe(time.Microsecond)
	op.Observe(time.Microsecond)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	s := r.Samples[0]
	if s.Offsets[0] != int64(time.Millisecond) || s.Offsets[1] != int64(2*time.Millisecond) {
		t.Fatalf("offsets %v, want 1ms/2ms", s.Offsets)
	}
}

func TestSamplingDefaultCapacity(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(0)
	op := c.Op("op")
	op.Observe(time.Microsecond)
	c.SetElapsed(time.Second)
	if r := c.Snapshot(); len(r.Samples) != 1 || len(r.Samples[0].Values) != 1 {
		t.Fatalf("default-capacity capture lost the observation: %+v", r.Samples)
	}
}

// TestHandlesAreFreeUntilUsed: minting a handle costs a map slot, not a
// histogram or a capture buffer, so stacks can bind every label they might
// record up front; a label nobody observed is not an operation and never
// reaches a Result, and the first observation creates its row and series.
func TestHandlesAreFreeUntilUsed(t *testing.T) {
	c := NewCollector("wl")
	c.EnableSampling(0) // default capacity: 1 MiB of buffer per observed cell
	var refs [64]OpRef
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := c.SubstrateShard()
	for i := range refs {
		refs[i] = s.Op(fmt.Sprintf("op-%02d", i))
	}
	runtime.ReadMemStats(&after)
	const oneBuffer = DefaultSampleCapacity * 16
	if got := after.TotalAlloc - before.TotalAlloc; got > oneBuffer/4 {
		t.Fatalf("64 unused handles allocated %d bytes; one capture buffer is %d", got, oneBuffer)
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
	if len(r.Samples) != 1 || r.Samples[0].Op != "op-07" || len(r.Samples[0].Values) != 1 ||
		r.Samples[0].Values[0] != int64(3*time.Millisecond) {
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
		if op.Count != writers || len(r.Samples[i].Values) != writers || r.Samples[i].Dropped != 0 {
			t.Fatalf("%s: count %d, %d samples, %d dropped, want %d/%d/0",
				op.Op, op.Count, len(r.Samples[i].Values), r.Samples[i].Dropped, writers, writers)
		}
	}
}

// TestSampleQuantilesAgreeWithHistogram cross-checks the two quantile
// sources a run carries. With nothing dropped, the nearest-rank quantile of
// the captured stream (what `bdbench compare` recomputes) and the same op's
// OpStats quantile (what the reporters print) pick the same observation, so
// they differ only by the histogram's rounding down to its bucket start:
// 1µs below 64µs, at most 1/32 of the value above.
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
		if len(r.Samples) != 1 || r.Samples[0].Dropped != 0 || len(r.Samples[0].Values) != n {
			t.Fatalf("%s: stream not captured whole: %+v", name, r.Samples)
		}
		vals := r.Samples[0].Values
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		st := r.Ops[0]
		for _, q := range []struct {
			q    float64
			hist time.Duration
		}{{0.50, st.P50}, {0.95, st.P95}, {0.99, st.P99}} {
			raw := time.Duration(vals[int(math.Ceil(q.q*n))-1])
			bucket := max(time.Microsecond, raw/32)
			if q.hist > raw || raw-q.hist >= bucket {
				t.Errorf("%s p%.0f: stream %v, histogram %v, more than one bucket (%v) apart",
					name, q.q*100, raw, q.hist, bucket)
			}
		}
	}
}
