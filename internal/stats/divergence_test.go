package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func normalize(p []float64) []float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v / s
	}
	return out
}

func TestKLIdenticalIsZero(t *testing.T) {
	p := []float64{0.1, 0.2, 0.3, 0.4}
	d, err := KLDivergence(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Fatalf("KL(p||p) = %g, want ~0", d)
	}
}

func TestKLAsymmetry(t *testing.T) {
	p := []float64{0.9, 0.1}
	q := []float64{0.5, 0.5}
	dpq, _ := KLDivergence(p, q)
	dqp, _ := KLDivergence(q, p)
	if math.Abs(dpq-dqp) < 1e-6 {
		t.Fatalf("KL should be asymmetric here: %g vs %g", dpq, dqp)
	}
}

func TestKLFiniteWithZeros(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	d, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("KL with disjoint support should be finite after smoothing, got %g", d)
	}
	if d < 1 {
		t.Fatalf("KL of disjoint distributions %g, want large", d)
	}
}

func TestKLLengthMismatch(t *testing.T) {
	if _, err := KLDivergence([]float64{1}, []float64{0.5, 0.5}); err != ErrLengthMismatch {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

func TestJSSymmetricAndBounded(t *testing.T) {
	p := []float64{0.7, 0.2, 0.1}
	q := []float64{0.1, 0.1, 0.8}
	dpq, _ := JSDivergence(p, q)
	dqp, _ := JSDivergence(q, p)
	if math.Abs(dpq-dqp) > 1e-9 {
		t.Fatalf("JS not symmetric: %g vs %g", dpq, dqp)
	}
	if dpq < 0 || dpq > math.Ln2+1e-9 {
		t.Fatalf("JS out of [0, ln2]: %g", dpq)
	}
}

func TestTotalVariation(t *testing.T) {
	d, _ := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("TV of disjoint = %g, want 1", d)
	}
	d, _ = TotalVariation([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if d != 0 {
		t.Fatalf("TV of identical = %g, want 0", d)
	}
}

func TestCosineSimilarity(t *testing.T) {
	s, _ := CosineSimilarity([]float64{1, 0}, []float64{1, 0})
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("cosine identical = %g, want 1", s)
	}
	s, _ = CosineSimilarity([]float64{1, 0}, []float64{0, 1})
	if s != 0 {
		t.Fatalf("cosine orthogonal = %g, want 0", s)
	}
	s, _ = CosineSimilarity([]float64{0, 0}, []float64{1, 0})
	if s != 0 {
		t.Fatalf("cosine with zero vector = %g, want 0", s)
	}
}

func TestEarthMover1D(t *testing.T) {
	// Moving all mass one bin over costs 1 bin.
	d, _ := EarthMover1D([]float64{1, 0, 0}, []float64{0, 1, 0})
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("EMD one-bin shift = %g, want 1", d)
	}
	// Two bins over costs 2.
	d, _ = EarthMover1D([]float64{1, 0, 0}, []float64{0, 0, 1})
	if math.Abs(d-2) > 1e-12 {
		t.Fatalf("EMD two-bin shift = %g, want 2", d)
	}
}

func TestKSStatistic(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(a, a); d > 1e-12 {
		t.Fatalf("KS identical = %g, want 0", d)
	}
	b := []float64{100, 200, 300}
	if d := KSStatistic(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("KS disjoint = %g, want 1", d)
	}
	if d := KSStatistic(nil, a); d != 1 {
		t.Fatalf("KS empty = %g, want 1", d)
	}
}

func TestKSDiscriminatesDistributions(t *testing.T) {
	g := NewRNG(31)
	n := 5000
	uniformA := make([]float64, n)
	uniformB := make([]float64, n)
	gaussian := make([]float64, n)
	for i := 0; i < n; i++ {
		uniformA[i] = g.Float64()
		uniformB[i] = g.Float64()
		gaussian[i] = 0.5 + 0.1*g.NormFloat64()
	}
	same := KSStatistic(uniformA, uniformB)
	diff := KSStatistic(uniformA, gaussian)
	if same >= diff {
		t.Fatalf("KS(same)=%g should be < KS(diff)=%g", same, diff)
	}
	if diff < 0.2 {
		t.Fatalf("KS uniform-vs-gaussian %g, want clearly separated", diff)
	}
}

func TestQuickKLNonNegative(t *testing.T) {
	f := func(rawP, rawQ [8]uint8) bool {
		p := make([]float64, 8)
		q := make([]float64, 8)
		sp, sq := 0.0, 0.0
		for i := 0; i < 8; i++ {
			p[i] = float64(rawP[i]) + 1
			q[i] = float64(rawQ[i]) + 1
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		d, err := KLDivergence(p, q)
		return err == nil && d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJSSymmetric(t *testing.T) {
	f := func(rawP, rawQ [6]uint8) bool {
		p := make([]float64, 6)
		q := make([]float64, 6)
		for i := 0; i < 6; i++ {
			p[i] = float64(rawP[i]) + 1
			q[i] = float64(rawQ[i]) + 1
		}
		p, q = normalize(p), normalize(q)
		a, _ := JSDivergence(p, q)
		b, _ := JSDivergence(q, p)
		return math.Abs(a-b) < 1e-9 && a >= 0 && a <= math.Ln2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKSBounded(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		g := NewRNG(seed)
		size := int(n%50) + 1
		a := make([]float64, size)
		b := make([]float64, size)
		for i := 0; i < size; i++ {
			a[i] = g.Float64()
			b[i] = g.NormFloat64()
		}
		d := KSStatistic(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
