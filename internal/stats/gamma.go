package stats

import "math"

// GammaSample draws a Gamma(shape, 1) variate using the Marsaglia–Tsang
// squeeze method, with the standard boost for shape < 1. Gamma variates are
// the building block for Dirichlet sampling, which the LDA text generator
// uses to draw per-document topic mixtures.
func GammaSample(g *RNG, shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return GammaSample(g, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// DirichletSample draws a probability vector from Dirichlet(alpha) into
// dst, as long as alpha, by normalizing independent Gamma variates. It
// allocates nothing, so a generator drawing a mixture per document can reuse
// one buffer.
func DirichletSample(g *RNG, alpha, dst []float64) {
	total := 0.0
	for i, a := range alpha {
		dst[i] = GammaSample(g, a)
		total += dst[i]
	}
	for i := range alpha {
		if total == 0 {
			dst[i] = 1 / float64(len(alpha))
		} else {
			dst[i] /= total
		}
	}
}
