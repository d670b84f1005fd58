package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestAtomicLatencyMatchesSequential is the shard pipeline's core
// correctness claim: N concurrent writers into one atomic histogram produce
// exactly the counts/sum/max a sequential baseline produces.
func TestAtomicLatencyMatchesSequential(t *testing.T) {
	const writers, perWriter = 8, 2000
	var concurrent, sequential AtomicLatencyHistogram
	durations := make([][]time.Duration, writers)
	for w := range durations {
		g := NewRNG(uint64(100 + w))
		durations[w] = make([]time.Duration, perWriter)
		for i := range durations[w] {
			durations[w][i] = time.Duration(g.IntN(1<<22)) * time.Microsecond
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, d := range durations[w] {
				concurrent.Observe(d)
			}
		}(w)
	}
	wg.Wait()
	for _, ds := range durations {
		for _, d := range ds {
			sequential.Observe(d)
		}
	}
	snap, baseline := concurrent.Snapshot(), sequential.Snapshot()
	if snap.Count() != baseline.Count() {
		t.Fatalf("count %d, want %d", snap.Count(), baseline.Count())
	}
	if snap.Mean() != baseline.Mean() {
		t.Fatalf("mean %v, want %v", snap.Mean(), baseline.Mean())
	}
	if snap.Max() != baseline.Max() {
		t.Fatalf("max %v, want %v", snap.Max(), baseline.Max())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, want := snap.Quantile(q), baseline.Quantile(q); got != want {
			t.Fatalf("q%.2f %v, want %v", q, got, want)
		}
	}
}

// TestLatencyMergeInvariants: merging shards preserves count, sum, max and
// quantiles exactly versus observing everything into one histogram.
func TestLatencyMergeInvariants(t *testing.T) {
	g := NewRNG(7)
	var all AtomicLatencyHistogram
	parts := make([]*AtomicLatencyHistogram, 4)
	for i := range parts {
		parts[i] = &AtomicLatencyHistogram{}
	}
	for i := 0; i < 5000; i++ {
		d := time.Duration(g.IntN(1<<24)) * time.Microsecond
		all.Observe(d)
		parts[i%len(parts)].Observe(d)
	}
	whole := all.Snapshot()
	var merged LatencyHistogram
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), whole.Count())
	}
	if merged.Mean() != whole.Mean() {
		t.Fatalf("merged mean %v, want %v", merged.Mean(), whole.Mean())
	}
	if merged.Max() != whole.Max() {
		t.Fatalf("merged max %v, want %v", merged.Max(), whole.Max())
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("merged q%.2f = %v, want %v", q, got, want)
		}
	}
}

// TestAtomicLatencySnapshotDuringWrites exercises Snapshot racing with
// in-flight observes (meaningful under -race) and checks the cut is
// internally consistent: quantiles bounded by max, count monotone.
func TestAtomicLatencySnapshotDuringWrites(t *testing.T) {
	var h AtomicLatencyHistogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := NewRNG(uint64(w))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(g.IntN(1 << 20)))
				}
			}
		}(w)
	}
	var last uint64
	for i := 0; i < 200; i++ {
		snap := h.Snapshot()
		if snap.Count() < last {
			t.Fatalf("count went backwards: %d -> %d", last, snap.Count())
		}
		last = snap.Count()
		if snap.Count() > 0 && snap.Quantile(0.99) > snap.Max()+time.Millisecond {
			t.Fatalf("q99 %v exceeds max %v", snap.Quantile(0.99), snap.Max())
		}
	}
	close(stop)
	wg.Wait()
}

// TestAtomicLatencyConcurrentFirstWriters races GOMAXPROCS×4 writers into
// fresh histograms. Every writer walks the pages in the same order, so the
// ones running at once reach each page together and race its install. No
// observation may be lost to a page a losing writer dropped. The inline
// page may be in the directory at most once, and it is claimed exactly
// when it is there: a loser that claimed it gives it back, so a later page
// can take it. (It can stay out of the directory for good when its
// claimant loses after every other page is installed; under -race that
// happens about once in a few thousand histograms.)
func TestAtomicLatencyConcurrentFirstWriters(t *testing.T) {
	writers := 4 * runtime.GOMAXPROCS(0)
	// pageValue is a value in page k, varied by writer within the page.
	pageValue := func(k, w int) time.Duration {
		if k == 0 {
			return time.Duration(w % subBuckets)
		}
		return time.Duration(1<<(k+4) + w%subBuckets)
	}
	for w := range writers {
		for k := range pages {
			if got := bucketIndex(uint64(pageValue(k, w))) >> subBucketBits; got != k {
				t.Fatalf("value %v lands in page %d, want %d", pageValue(k, w), got, k)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		var h, want AtomicLatencyHistogram
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 2 * pages {
					h.Observe(pageValue(i%pages, w))
				}
			}()
			for i := range 2 * pages {
				want.Observe(pageValue(i%pages, w))
			}
		}
		close(start)
		wg.Wait()
		if got, exp := h.Snapshot(), want.Snapshot(); *got != *exp {
			t.Fatalf("trial %d: concurrent first writers recorded count %d sum %v min %v max %v, want %d %v %v %v (or differ in a bucket)",
				trial, got.Count(), got.sum, got.min, got.max, exp.Count(), exp.sum, exp.min, exp.max)
		}
		inline := 0
		for k := range h.dir {
			if h.dir[k].Load() == &h.inline {
				inline++
			}
		}
		if inline > 1 || h.used.Load() != (inline == 1) {
			t.Fatalf("trial %d: the inline page is in the directory %d times and claimed %v; want at most once, and claimed exactly when there",
				trial, inline, h.used.Load())
		}
	}
}

func TestAtomicLatencyNegativeClamped(t *testing.T) {
	var h AtomicLatencyHistogram
	h.Observe(-time.Second)
	snap := h.Snapshot()
	if snap.Count() != 1 || snap.Quantile(1) != 0 {
		t.Fatal("negative duration should clamp to zero")
	}
}

// top is the layout's ceiling: a value at or above it shares the last
// bucket, so only values below it carry the 1/64 bound.
const top = time.Duration(1) << topBits

// checkLatency holds a histogram of ds to its contract and returns the
// first violation:
//   - min and max are exact, and every quantile lies in [min, max] and,
//     when the nearest-rank order statistic is below top, within 1/64 of it;
//   - four writers and a concurrent Snapshot leave, once quiescent, the
//     histogram one writer leaves;
//   - ds split at split and the halves' snapshots merged equal the whole.
func checkLatency(ds []time.Duration, split int) error {
	whole := observed(ds...)
	if n := len(ds); n > 0 {
		sorted := slices.Sorted(slices.Values(ds))
		lo, hi := sorted[0], sorted[n-1]
		if whole.min != lo || whole.max != hi {
			return fmt.Errorf("[min, max] = [%v, %v], want [%v, %v]", whole.min, whole.max, lo, hi)
		}
		for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			got := whole.Quantile(q)
			exact := sorted[max(int(math.Ceil(q*float64(n))), 1)-1]
			if got < lo || got > hi {
				return fmt.Errorf("q%v = %v outside [%v, %v]", q, got, lo, hi)
			}
			if exact < top && (got < exact-exact/64 || got > exact+exact/64) {
				return fmt.Errorf("q%v = %v, order statistic %v: more than 1/64 apart", q, got, exact)
			}
		}
	}

	const writers = 4
	var conc AtomicLatencyHistogram
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		conc.Snapshot()
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ds); i += writers {
				conc.Observe(ds[i])
			}
		}(w)
	}
	wg.Wait()
	<-done
	if *conc.Snapshot() != *whole {
		return fmt.Errorf("%d writers leave a different histogram than one", writers)
	}

	merged := observed(ds[:split]...)
	merged.Merge(observed(ds[split:]...))
	if *merged != *whole {
		return fmt.Errorf("split at %d of %d and merged differs from the whole", split, len(ds))
	}
	return nil
}

// TestLatencyErrorBound sweeps seeds over log-uniform, bimodal and constant
// samples from 1 ns to 1 h and holds each histogram to checkLatency: the
// layout's 1/64 bound on every quantile, exact min and max, and merges
// that equal one histogram of the union.
func TestLatencyErrorBound(t *testing.T) {
	const lo, hi = 1.0, float64(time.Hour)
	logUniform := func(g *RNG) time.Duration {
		return time.Duration(math.Exp(math.Log(lo) + g.Float64()*(math.Log(hi)-math.Log(lo))))
	}
	for seed := uint64(0); seed < 60; seed++ {
		g := NewRNG(seed)
		n := 1 + g.IntN(3000)
		ds := make([]time.Duration, n)
		var shape string
		switch seed % 3 {
		case 0:
			shape = "log-uniform"
			for i := range ds {
				ds[i] = logUniform(g)
			}
		case 1:
			shape = "bimodal"
			modes := [2]float64{float64(logUniform(g)), float64(logUniform(g))}
			for i := range ds {
				v := modes[g.IntN(2)] * math.Exp(0.3*g.NormFloat64())
				ds[i] = time.Duration(min(max(v, lo), hi))
			}
		case 2:
			shape = "constant"
			c := logUniform(g)
			for i := range ds {
				ds[i] = c
			}
		}
		if err := checkLatency(ds, g.IntN(n+1)); err != nil {
			t.Fatalf("seed %d, %d %s samples: %v", seed, n, shape, err)
		}
	}
}

// TestLatencyLayout pins the layout's arithmetic: the buckets tile every
// nanosecond below top in order, each page is the range its comment names,
// and every bucket's reported middle is within 1/64 of each value it holds.
func TestLatencyLayout(t *testing.T) {
	if buckets != 1216 || pages != 38 {
		t.Fatalf("%d buckets in %d pages, want 1216 in 38", buckets, pages)
	}
	for i := 0; i < buckets; i++ {
		s := max(i>>subBucketBits-1, 0)
		first := time.Duration(i-s<<subBucketBits) << s
		last := first + time.Duration(1)<<s - 1
		for _, v := range []time.Duration{first, last} {
			if got := bucketIndex(uint64(v)); got != i {
				t.Fatalf("%d ns lands in bucket %d, want %d", v, got, i)
			}
			if mid := bucketMid(i); mid < v-v/64 || mid > v+v/64 {
				t.Fatalf("bucket %d reports %v for %v", i, mid, v)
			}
		}
		if i > 0 && bucketIndex(uint64(first-1)) != i-1 {
			t.Fatalf("bucket %d does not start where bucket %d ends", i, i-1)
		}
	}
	for k := 0; k < pages; k++ {
		if got := bucketIndex(uint64(pageValue(k))) >> subBucketBits; got != k {
			t.Fatalf("%v lands in page %d, want %d", pageValue(k), got, k)
		}
	}
	if bucketIndex(uint64(top)) != buckets-1 || bucketIndex(math.MaxInt64) != buckets-1 {
		t.Fatal("values above the top must land in the last bucket")
	}
}

// pageValue is the first duration page k holds: page 0 is [0, 32) ns and
// page k ≥ 1 is [2^(k+4), 2^(k+5)).
func pageValue(k int) time.Duration {
	if k == 0 {
		return 0
	}
	return time.Duration(1) << (k + 4)
}

// FuzzLatencyHistogram decodes durations from the input and holds their
// histogram to checkLatency. The first byte places the merge split; each
// following 8 bytes are one duration, shifted right by 20 to 64 bits so
// every range from 0 to beyond the layout's top is reached.
func FuzzLatencyHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte("\x03141.3 ms is the single load that read 139.3 ms"))
	g := NewRNG(2014)
	seed := make([]byte, 1+8*200)
	for i := range seed {
		seed[i] = byte(g.Uint64())
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ds := make([]time.Duration, 0, len(data)/8)
		for b := data[1:]; len(b) >= 8; b = b[8:] {
			x := binary.LittleEndian.Uint64(b)
			ds = append(ds, time.Duration(x>>(20+x%45)))
		}
		if err := checkLatency(ds, int(data[0])%(len(ds)+1)); err != nil {
			t.Fatal(err)
		}
	})
}
