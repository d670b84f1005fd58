package stats

import (
	"errors"
	"math"
	"sort"
)

// The divergence measures in this file implement the paper's §5.1 proposal:
// "metrics need to be developed to evaluate data veracity ... statistical
// metrics such as Kullback–Leibler divergence can be applied to compare the
// similarity between two distributions."
//
// All functions operate on probability vectors (non-negative, summing to ~1).
// Callers that start from frequency tables should use AlignedProbabilities.

// ErrLengthMismatch is returned when two probability vectors have different
// lengths and therefore cannot be compared.
var ErrLengthMismatch = errors.New("stats: probability vectors have different lengths")

// smoothing is the epsilon mixed into distributions before computing
// KL-style divergences, so that zero bins do not produce infinities. The
// value trades a small bias for robustness.
const smoothing = 1e-10

func smooth(p []float64) []float64 {
	out := make([]float64, len(p))
	total := 0.0
	for i, v := range p {
		if v < 0 {
			v = 0
		}
		out[i] = v + smoothing
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// KLDivergence returns D_KL(p || q) in nats, with epsilon smoothing so the
// result is always finite. It is asymmetric: D(p||q) != D(q||p).
func KLDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	ps, qs := smooth(p), smooth(q)
	d := 0.0
	for i := range ps {
		d += ps[i] * math.Log(ps[i]/qs[i])
	}
	if d < 0 {
		d = 0 // numerical residue
	}
	return d, nil
}

// JSDivergence returns the Jensen–Shannon divergence, a smoothed symmetric
// variant of KL bounded by ln(2).
func JSDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	ps, qs := smooth(p), smooth(q)
	m := make([]float64, len(ps))
	for i := range ps {
		m[i] = (ps[i] + qs[i]) / 2
	}
	dpm, _ := KLDivergence(ps, m)
	dqm, _ := KLDivergence(qs, m)
	return (dpm + dqm) / 2, nil
}

// TotalVariation returns the total variation distance: half the L1 distance
// between p and q, in [0, 1].
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	d := 0.0
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d / 2, nil
}

// CosineSimilarity returns the cosine of the angle between p and q, in
// [0, 1] for non-negative vectors. 1 means identical direction.
func CosineSimilarity(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	var dot, np, nq float64
	for i := range p {
		dot += p[i] * q[i]
		np += p[i] * p[i]
		nq += q[i] * q[i]
	}
	if np == 0 || nq == 0 {
		return 0, nil
	}
	return dot / (math.Sqrt(np) * math.Sqrt(nq)), nil
}

// EarthMover1D returns the 1-dimensional earth mover's (Wasserstein-1)
// distance between two probability vectors over the same ordered support,
// measured in bins: the cumulative-difference formulation.
func EarthMover1D(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	var cum, d float64
	for i := range p {
		cum += p[i] - q[i]
		d += math.Abs(cum)
	}
	return d, nil
}

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic: the
// maximum distance between the empirical CDFs of samples a and b. The inputs
// are raw samples, not probabilities.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var i, j int
	var d float64
	for i < len(as) && j < len(bs) {
		switch {
		case as[i] < bs[j]:
			i++
		case as[i] > bs[j]:
			j++
		default:
			// Advance both pointers past the tied value so ties do not
			// create a phantom CDF gap.
			v := as[i]
			for i < len(as) && as[i] == v {
				i++
			}
			for j < len(bs) && bs[j] == v {
				j++
			}
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}
