package stats

import (
	"math"
	"testing"
	"testing/quick"
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
