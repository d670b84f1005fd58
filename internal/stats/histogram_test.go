package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count %d, want 1", i, c)
		}
	}
	if h.Total() != 10 {
		t.Fatalf("total %d, want 10", h.Total())
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Observe(-5)
	h.Observe(100)
	// Out-of-range values must not pollute the edge bins.
	if h.Counts[0] != 0 || h.Counts[4] != 0 {
		t.Fatalf("out-of-range values leaked into bins: %v", h.Counts)
	}
	if h.under != 1 || h.over != 1 {
		t.Fatalf("under/over %d/%d, want 1/1", h.under, h.over)
	}
	if h.Total() != 2 || h.InRange() != 0 {
		t.Fatalf("total %d inRange %d, want 2/0", h.Total(), h.InRange())
	}
}

func TestHistogramProbabilitiesExcludeOutOfRange(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Observe(-1)
	h.Observe(0.5)
	h.Observe(2.5)
	h.Observe(9)
	p := h.Probabilities()
	// Normalized over the 2 in-range observations only.
	want := []float64{0.5, 0, 0.5, 0}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("probabilities %v, want %v", p, want)
		}
	}
}

func TestHistogramProbabilitiesSumToOne(t *testing.T) {
	h := NewHistogram(0, 1, 7)
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		h.Observe(g.Float64())
	}
	sum := 0.0
	for _, p := range h.Probabilities() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum %.12f, want 1", sum)
	}
}

func TestHistogramEmptyProbabilitiesUniform(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	p := h.Probabilities()
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("empty histogram probabilities %v, want uniform", p)
		}
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bins", func() { NewHistogram(0, 1, 0) })
	mustPanic("inverted range", func() { NewHistogram(1, 0, 4) })
}

func observeN(f *FreqTable, key string, n int) {
	for i := 0; i < n; i++ {
		f.Observe(key)
	}
}

func TestFreqTableBasics(t *testing.T) {
	f := NewFreqTable()
	f.Observe("a")
	f.Observe("a")
	f.Observe("b")
	observeN(f, "c", 5)
	if f.Total() != 8 {
		t.Fatalf("total %d, want 8", f.Total())
	}
	if f.Distinct() != 3 {
		t.Fatalf("distinct %d, want 3", f.Distinct())
	}
	top := f.TopK(2)
	if len(top) != 2 || top[0] != "c" || top[1] != "a" {
		t.Fatalf("TopK = %v, want [c a]", top)
	}
}

func TestFreqTableTopKTieBreak(t *testing.T) {
	f := NewFreqTable()
	f.Observe("z")
	f.Observe("a")
	top := f.TopK(10)
	if len(top) != 2 || top[0] != "a" || top[1] != "z" {
		t.Fatalf("ties must break lexicographically, got %v", top)
	}
}

func TestAlignedProbabilities(t *testing.T) {
	f := NewFreqTable()
	g := NewFreqTable()
	observeN(f, "x", 3)
	observeN(f, "y", 1)
	observeN(g, "y", 2)
	observeN(g, "z", 2)
	p, q := AlignedProbabilities(f, g)
	if len(p) != 3 || len(q) != 3 {
		t.Fatalf("aligned lengths %d/%d, want 3", len(p), len(q))
	}
	// keys sorted: x, y, z
	if math.Abs(p[0]-0.75) > 1e-12 || math.Abs(p[1]-0.25) > 1e-12 || p[2] != 0 {
		t.Fatalf("p = %v", p)
	}
	if q[0] != 0 || math.Abs(q[1]-0.5) > 1e-12 || math.Abs(q[2]-0.5) > 1e-12 {
		t.Fatalf("q = %v", q)
	}
}

// observed is the LatencyHistogram production reads: a drained
// AtomicLatencyHistogram.
func observed(ds ...time.Duration) *LatencyHistogram {
	var a AtomicLatencyHistogram
	for _, d := range ds {
		a.Observe(d)
	}
	return a.Snapshot()
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	durations := make([]time.Duration, 0, 1000)
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		d := time.Duration(g.IntN(10000)) * time.Microsecond
		durations = append(durations, d)
	}
	l := observed(durations...)
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	exact := durations[500]
	got := l.Quantile(0.5)
	// Buckets have ~1.6% relative error at this magnitude.
	ratio := float64(got) / float64(exact)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("p50 %v, exact %v (ratio %.3f)", got, exact, ratio)
	}
	if l.Count() != 1000 {
		t.Fatalf("count %d, want 1000", l.Count())
	}
	if l.Max() != durations[999] {
		t.Fatalf("max %v, want %v", l.Max(), durations[999])
	}
}

func TestLatencyHistogramWideRange(t *testing.T) {
	inputs := []time.Duration{
		0,
		time.Microsecond,
		time.Millisecond,
		time.Second,
		time.Minute,
		30 * time.Minute,
	}
	l := observed(inputs...)
	if l.Count() != uint64(len(inputs)) {
		t.Fatalf("count %d", l.Count())
	}
	if q := l.Quantile(1.0); q < time.Minute {
		t.Fatalf("q100 %v, want >= 1m", q)
	}
	if q := l.Quantile(0.01); q > time.Microsecond {
		t.Fatalf("q1 %v, want tiny", q)
	}
}

func TestLatencyHistogramNegativeClamped(t *testing.T) {
	l := observed(-time.Second)
	if l.Count() != 1 || l.Quantile(1) != 0 {
		t.Fatal("negative duration should clamp to zero")
	}
}

func TestLatencyHistogramMerge(t *testing.T) {
	a, b := observed(time.Millisecond), observed(2*time.Millisecond)
	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("merged count %d, want 2", a.Count())
	}
	if a.Max() != 2*time.Millisecond {
		t.Fatalf("merged max %v", a.Max())
	}
}

func TestLatencyHistogramMeanAccuracy(t *testing.T) {
	var a AtomicLatencyHistogram
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	l := a.Snapshot()
	want := 50500 * time.Microsecond
	if got := l.Mean(); got != want {
		t.Fatalf("mean %v, want %v (mean is exact, not bucketed)", got, want)
	}
}

func TestQuickLatencyQuantileBounded(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		var a AtomicLatencyHistogram
		var maxSeen time.Duration
		for i := 0; i < 200; i++ {
			d := time.Duration(g.IntN(1<<20)) * time.Microsecond
			if d > maxSeen {
				maxSeen = d
			}
			a.Observe(d)
		}
		l := a.Snapshot()
		return l.Quantile(1.0) <= maxSeen && l.Quantile(0) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
