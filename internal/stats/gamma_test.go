package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaMeanVariance(t *testing.T) {
	g := NewRNG(51)
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		var s Summary
		for i := 0; i < 200000; i++ {
			s.Observe(GammaSample(g, shape))
		}
		// Gamma(shape, 1) has mean shape and variance shape.
		if math.Abs(s.Mean()-shape)/shape > 0.03 {
			t.Fatalf("gamma(%g) mean %.4f, want ~%g", shape, s.Mean(), shape)
		}
		if math.Abs(s.Variance()-shape)/shape > 0.08 {
			t.Fatalf("gamma(%g) variance %.4f, want ~%g", shape, s.Variance(), shape)
		}
	}
}

func TestGammaNonPositiveShape(t *testing.T) {
	g := NewRNG(1)
	if GammaSample(g, 0) != 0 || GammaSample(g, -1) != 0 {
		t.Fatal("non-positive shape should return 0")
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	g := NewRNG(52)
	v := make([]float64, 4)
	DirichletSample(g, []float64{1, 2, 3, 4}, v)
	sum := 0.0
	for _, x := range v {
		if x < 0 {
			t.Fatalf("negative component %v", v)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("dirichlet sum %.12f, want 1", sum)
	}
}

func TestDirichletMeanMatchesAlpha(t *testing.T) {
	g := NewRNG(53)
	alpha := []float64{2, 6}
	var s0, s1 Summary
	v := make([]float64, len(alpha))
	for i := 0; i < 50000; i++ {
		DirichletSample(g, alpha, v)
		s0.Observe(v[0])
		s1.Observe(v[1])
	}
	if math.Abs(s0.Mean()-0.25) > 0.01 {
		t.Fatalf("dirichlet mean[0] %.4f, want 0.25", s0.Mean())
	}
	if math.Abs(s1.Mean()-0.75) > 0.01 {
		t.Fatalf("dirichlet mean[1] %.4f, want 0.75", s1.Mean())
	}
}

func TestSymmetricDirichletConcentration(t *testing.T) {
	g := NewRNG(54)
	// Very small alpha concentrates mass on a single component.
	sparseMax := 0.0
	denseMax := 1.0
	for i := 0; i < 100; i++ {
		sp, dn := make([]float64, 10), make([]float64, 10)
		DirichletSample(g, symmetric(0.01, 10), sp)
		DirichletSample(g, symmetric(100, 10), dn)
		for _, v := range sp {
			if v > sparseMax {
				sparseMax = v
			}
		}
		for _, v := range dn {
			if v > denseMax && v < 1 {
				denseMax = v
			}
		}
		_ = dn
	}
	if sparseMax < 0.9 {
		t.Fatalf("sparse dirichlet max %.3f, want near 1", sparseMax)
	}
}

func TestQuickDirichletValid(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		g := NewRNG(seed)
		n := int(k%8) + 2
		v := make([]float64, n)
		DirichletSample(g, symmetric(0.5, n), v)
		sum := 0.0
		for _, x := range v {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// symmetric returns k copies of alpha: a symmetric Dirichlet's parameters.
func symmetric(alpha float64, k int) []float64 {
	a := make([]float64, k)
	for i := range a {
		a[i] = alpha
	}
	return a
}
