package stats

import (
	"math"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count %d, want 8", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean %g, want 5", s.Mean())
	}
	// Sample variance of that set is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-9 {
		t.Fatalf("variance %g, want %g", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %g/%g, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty summary min/max should be NaN")
	}
	if s.Variance() != 0 || s.Mean() != 0 {
		t.Fatal("empty summary mean/variance should be 0")
	}
}

func TestSummarySingleValue(t *testing.T) {
	var s Summary
	s.Observe(3)
	if s.Variance() != 0 {
		t.Fatalf("single-value variance %g, want 0", s.Variance())
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-value min/max wrong")
	}
}
