package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/raceflag"
)

// sampleMean draws n variates and returns their mean.
func sampleMean(d Distribution, n int, seed uint64) float64 {
	g := NewRNG(seed)
	var s Summary
	for i := 0; i < n; i++ {
		s.Observe(d.Sample(g))
	}
	return s.Mean()
}

func TestUniformMean(t *testing.T) {
	d := Uniform{Min: 2, Max: 10}
	m := sampleMean(d, 100000, 1)
	if math.Abs(m-6) > 0.1 {
		t.Fatalf("uniform sample mean %.3f, want ~6", m)
	}
}

func TestParetoSamplesAboveScale(t *testing.T) {
	d := Pareto{Xm: 3, Alpha: 2.5}
	g := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(g); v < 3 {
			t.Fatalf("pareto sample %v below scale", v)
		}
	}
	m := sampleMean(d, 500000, 5)
	want := d.Alpha * d.Xm / (d.Alpha - 1)
	if math.Abs(m-want)/want > 0.05 {
		t.Fatalf("pareto mean %.3f, want ~%.3f", m, want)
	}
}

func TestPoissonSmallLambda(t *testing.T) {
	d := Poisson{Lambda: 3}
	m := sampleMean(d, 100000, 6)
	if math.Abs(m-3) > 0.05 {
		t.Fatalf("poisson mean %.3f, want ~3", m)
	}
}

func TestPoissonLargeLambdaApproximation(t *testing.T) {
	d := Poisson{Lambda: 500}
	m := sampleMean(d, 50000, 7)
	if math.Abs(m-500) > 2 {
		t.Fatalf("poisson(500) mean %.2f, want ~500", m)
	}
	g := NewRNG(8)
	for i := 0; i < 1000; i++ {
		if d.Sample(g) < 0 {
			t.Fatal("poisson sample negative")
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	g := NewRNG(9)
	if v := (Poisson{Lambda: 0}).Sample(g); v != 0 {
		t.Fatalf("poisson(0) sample %v, want 0", v)
	}
}

func TestZipfSkew(t *testing.T) {
	z := Zipf{Count: 1000, S: 1.2}
	g := NewRNG(10)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next(g)
		if v < 0 || v >= 1000 {
			t.Fatalf("zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate, and counts must be roughly monotone decreasing
	// when aggregated in blocks.
	if counts[0] < counts[10] {
		t.Fatalf("zipf rank 0 (%d) not hotter than rank 10 (%d)", counts[0], counts[10])
	}
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.3 {
		t.Fatalf("zipf top-10 share %.3f, want heavy head", float64(head)/n)
	}
}

func TestZipfHandlesSAtOrBelowOne(t *testing.T) {
	z := Zipf{Count: 100, S: 1.0}
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if v := z.Next(g); v < 0 || v >= 100 {
			t.Fatalf("zipf(s=1) sample %d out of range", v)
		}
	}
}

// TestZipfDrawSequencePinned holds the zipf family's draw sequence: YCSB's
// key choice, and with it every `samples.ycsb-*` fact of the repo benchmark,
// is a function of it. The values were taken before the sampler stopped
// heap-allocating its state on every draw.
func TestZipfDrawSequencePinned(t *testing.T) {
	g := NewRNG(2014)
	var got []int64
	for i := 0; i < 8; i++ {
		got = append(got, Zipf{Count: 10000, S: 0.99}.Next(g))
	}
	for i := 0; i < 4; i++ {
		got = append(got, ScrambledZipf{Count: 10000, S: 1.2}.Next(g))
	}
	max := int64(500)
	for i := 0; i < 4; i++ {
		got = append(got, Latest{Max: &max, S: 1.1}.Next(g))
	}
	want := []int64{2, 1299, 306, 0, 3379, 1493, 61, 2042, 7535, 9050, 1855, 7535, 498, 130, 451, 402}
	if !slices.Equal(got, want) {
		t.Fatalf("zipf draws moved:\n got %v\nwant %v", got, want)
	}
}

// TestZipfDrawsDoNotAllocate: a key draw is made once per YCSB operation, so
// the sampler's state lives on the stack.
func TestZipfDrawsDoNotAllocate(t *testing.T) {
	g := NewRNG(3)
	max := int64(1000)
	for _, s := range []IntSampler{
		Zipf{Count: 1000, S: 1.1}, ScrambledZipf{Count: 1000, S: 1.1}, Latest{Max: &max, S: 1.1},
	} {
		allocs := testing.AllocsPerRun(1000, func() { s.Next(g) })
		if allocs != 0 && !raceflag.Enabled {
			t.Errorf("%T: %.1f allocs per draw, want 0", s, allocs)
		}
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	z := ScrambledZipf{Count: 10000, S: 1.3}
	g := NewRNG(12)
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		v := z.Next(g)
		if v < 0 || v >= 10000 {
			t.Fatalf("scrambled zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// The hottest key should not be key 0 with overwhelming likelihood:
	// scrambling moves rank 0 to Mix64(0) % N.
	want := int64(Mix64(0) % 10000)
	best, bestCount := int64(-1), 0
	for k, c := range counts {
		if c > bestCount {
			best, bestCount = k, c
		}
	}
	if best != want {
		t.Fatalf("hottest scrambled key %d, want %d", best, want)
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	max := int64(1000)
	l := Latest{Max: &max, S: 1.2}
	g := NewRNG(13)
	recent := 0
	const n = 50000
	for i := 0; i < n; i++ {
		v := l.Next(g)
		if v < 0 || v >= max {
			t.Fatalf("latest sample %d out of range", v)
		}
		if v >= max-10 {
			recent++
		}
	}
	if float64(recent)/n < 0.3 {
		t.Fatalf("latest top-10 recent share %.3f, want heavy recency bias", float64(recent)/n)
	}
	// Growing max shifts the hot zone.
	max = 2000
	seenHigh := false
	for i := 0; i < 1000; i++ {
		if l.Next(g) >= 1000 {
			seenHigh = true
			break
		}
	}
	if !seenHigh {
		t.Fatal("latest did not track growing max")
	}
}

func TestLatestEmpty(t *testing.T) {
	max := int64(0)
	l := Latest{Max: &max, S: 1.2}
	if v := l.Next(NewRNG(1)); v != 0 {
		t.Fatalf("latest on empty domain = %d, want 0", v)
	}
}

func TestQuickParetoAboveScale(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		p := Pareto{Xm: 2, Alpha: 1.5}
		return p.Sample(g) >= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickZipfInRange(t *testing.T) {
	f := func(seed uint64, cs uint16) bool {
		count := int64(cs%1000) + 2
		g := NewRNG(seed)
		v := Zipf{Count: count, S: 1.1}.Next(g)
		return v >= 0 && v < count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
