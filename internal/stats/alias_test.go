package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/raceflag"
)

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	g := NewRNG(21)
	counts := make([]int, len(weights))
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Sample(g)]++
	}
	total := 10.0
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("category %d frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := NewAlias([]float64{5})
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Sample(g) != 0 {
			t.Fatal("single-category alias sampled nonzero index")
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 1})
	g := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := a.Sample(g)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight category %d", v)
		}
	}
}

func TestAliasPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewAlias(nil) })
	mustPanic("zero-sum", func() { NewAlias([]float64{0, 0}) })
	mustPanic("negative", func() { NewAlias([]float64{1, -1}) })
}

func TestCategoricalIntSampler(t *testing.T) {
	c := NewCategorical([]float64{0, 0, 10})
	g := NewRNG(3)
	for i := 0; i < 100; i++ {
		if v := c.Next(g); v != 2 {
			t.Fatalf("categorical with single live weight sampled %d", v)
		}
	}
}

func TestQuickAliasInRange(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			weights[i] = float64(r)
			sum += weights[i]
		}
		if sum == 0 {
			return true // would panic by contract
		}
		a := NewAlias(weights)
		g := NewRNG(seed)
		v := a.Sample(g)
		return v >= 0 && v < len(weights) && weights[v] > 0
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAliasBuildIsNewAlias: one Alias rebuilt over a run of distributions of
// varying length is, each time, the table NewAlias builds: the same
// probabilities and, wherever a probability is short of 1, the same alias.
func TestAliasBuildIsNewAlias(t *testing.T) {
	g := NewRNG(9)
	var reused Alias
	for round := 0; round < 200; round++ {
		weights := make([]float64, 1+g.IntN(40))
		for i := range weights {
			if !g.Bool(0.2) {
				weights[i] = g.Float64() * 10
			}
		}
		weights[g.IntN(len(weights))] = 1
		reused.Build(weights)
		fresh := NewAlias(weights)
		if reused.n != fresh.n || !slices.Equal(reused.prob[:reused.n], fresh.prob) {
			t.Fatalf("round %d: rebuilt probabilities %v, NewAlias %v", round, reused.prob[:reused.n], fresh.prob)
		}
		for i, p := range fresh.prob {
			if p < 1 && reused.alias[i] != fresh.alias[i] {
				t.Fatalf("round %d: alias[%d] = %d rebuilt, %d from NewAlias", round, i, reused.alias[i], fresh.alias[i])
			}
		}
	}
}

// TestAliasBuildAllocatesNothing: 1 000 rebuilds of one Alias over a
// distribution no longer than it has held, measured as one run, allocate
// exactly nothing.
func TestAliasBuildAllocatesNothing(t *testing.T) {
	weights := []float64{0.1, 0.4, 0.2, 0.3}
	var a Alias
	a.Build([]float64{1, 1, 1, 1, 1, 1})
	i := 0
	if allocs := allocsOver(1000, func() {
		a.Build(weights[:1+i%len(weights)])
		i++
	}); allocs != 0 && !raceflag.Enabled {
		t.Fatalf("1000 rebuilds allocated %v times, want 0", allocs)
	}
}
