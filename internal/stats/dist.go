package stats

import (
	"math"
	"sync/atomic"
)

// Distribution is a real-valued probability distribution that can be sampled
// with an explicit RNG. Table column generators, key choosers and arrival
// processes are all parameterized by Distribution so that a workload's
// statistical shape is data, not code.
type Distribution interface {
	// Sample draws one variate using g.
	Sample(g *RNG) float64
}

// Uniform is the continuous uniform distribution on [Min, Max).
type Uniform struct {
	Min, Max float64
}

// Sample implements Distribution.
func (u Uniform) Sample(g *RNG) float64 { return u.Min + g.Float64()*(u.Max-u.Min) }

// Pareto is the Pareto (power-law) distribution with scale Xm and shape Alpha.
type Pareto struct {
	Xm, Alpha float64
}

// Sample implements Distribution.
func (p Pareto) Sample(g *RNG) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Poisson is the Poisson distribution with mean Lambda. Sampling uses
// Knuth's product method for small lambda and a normal approximation with
// continuity correction for large lambda.
type Poisson struct {
	Lambda float64
}

// Sample implements Distribution.
func (p Poisson) Sample(g *RNG) float64 {
	if p.Lambda <= 0 {
		return 0
	}
	if p.Lambda > 64 {
		v := math.Round(p.Lambda + math.Sqrt(p.Lambda)*g.NormFloat64())
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-p.Lambda)
	k := 0
	prod := 1.0
	for {
		prod *= g.Float64()
		if prod <= l {
			return float64(k)
		}
		k++
	}
}

// IntSampler draws integer variates in [0, n), n being the size of the
// sampler's domain. It is the interface used by key choosers (which item does
// the next OLTP request touch?) and categorical column generators.
type IntSampler interface {
	// Next draws the next integer of the domain.
	Next(g *RNG) int64
}

// UniformInt samples uniformly from [0, Count).
type UniformInt struct {
	Count int64
}

// Next implements IntSampler.
func (u UniformInt) Next(g *RNG) int64 { return g.Int64N(u.Count) }

// Zipf samples ranks from a zipfian distribution over [0, Count): rank r is
// drawn with probability proportional to 1/(r+1)^S. It is the canonical
// model for skewed access patterns (popular keys, popular words). The
// implementation uses the rejection-inversion sampler from math/rand/v2,
// reconstructed lazily per RNG because the stdlib sampler binds to a source.
type Zipf struct {
	Count int64
	S     float64 // exponent, must be > 1 for the stdlib sampler
}

// Next implements IntSampler.
func (z Zipf) Next(g *RNG) int64 {
	s := z.S
	if s <= 1 {
		s = 1.0001
	}
	// rand/v2's Zipf generates values in [0, imax] with P(k) ∝ (v+k)^-s.
	zs := newZipfState(s, 1, uint64(z.Count-1))
	return int64(zs.next(g))
}

// ScrambledZipf is YCSB's "scrambled zipfian": zipf-distributed popularity
// ranks scattered across the item space with a bit mixer, so hot items are
// spread uniformly over the key range instead of clustered at low ids.
type ScrambledZipf struct {
	Count int64
	S     float64
}

// Next implements IntSampler.
func (z ScrambledZipf) Next(g *RNG) int64 {
	rank := Zipf{Count: z.Count, S: z.S}.Next(g)
	return int64(Mix64(uint64(rank)) % uint64(z.Count))
}

// Latest is YCSB's "latest" distribution: recently inserted items are most
// popular. Max is a pointer so the hot end tracks ongoing inserts; it is
// read atomically, so concurrent writers must update it with sync/atomic.
type Latest struct {
	Max *int64 // current highest id (exclusive)
	S   float64
}

// Next implements IntSampler.
func (l Latest) Next(g *RNG) int64 {
	n := atomic.LoadInt64(l.Max)
	if n <= 0 {
		return 0
	}
	off := Zipf{Count: n, S: l.S}.Next(g)
	return n - 1 - off
}

// zipfState implements the rejection-inversion zipf sampler (Hörmann &
// Derflinger), mirroring math/rand's Zipf but driven by our RNG so that
// samples stay reproducible under Split. It is a plain value: a sampler
// builds one per draw (Latest's range moves between draws) and it never
// reaches the heap.
type zipfState struct {
	imax                    float64
	v, q                    float64
	oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm, s     float64
}

func newZipfState(q, v float64, imax uint64) zipfState {
	z := zipfState{imax: float64(imax), v: v, q: q}
	z.oneminusQ = 1 - q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(v)*(-q)) - z.hxm
	z.s = 2 - z.hinv(z.h(1.5)-math.Exp(-q*math.Log(v+1)))
	return z
}

func (z *zipfState) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfState) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// next draws one zipf variate in [0, imax] from g.
func (z *zipfState) next(g *RNG) uint64 {
	for {
		r := g.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
