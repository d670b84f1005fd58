// Package stats provides the statistical foundation of bdbench: seeded and
// splittable random number generation, the probability distributions used by
// the data generators (uniform, gaussian, zipfian, exponential, poisson,
// categorical), histogram types for both value and latency data, and
// the divergence measures (KL, JS, KS, EMD, ...) that back the
// data-veracity metrics proposed in §5.1 of "On Big Data Benchmarking".
//
// Everything in this package is deterministic given a seed, which is what
// makes bdbench's parallel data generation reproducible: each chunk of a data
// set derives its own RNG from (seed, chunk label) so generation order and
// worker count never change the output.
package stats

import (
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strings"
)

// RNG is a deterministic pseudo-random number generator. It wraps a PCG
// source from math/rand/v2 and remembers its seed so that child generators
// can be derived reproducibly with Split.
//
// RNG is not safe for concurrent use; derive one per goroutine with Split.
type RNG struct {
	seed uint64
	r    *rand.Rand
}

// goldenGamma is the 64-bit golden-ratio constant used to decorrelate the
// two PCG seed words and to mix child seeds in Split.
const goldenGamma = 0x9E3779B97F4A7C15

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewPCG(seed, seed^goldenGamma))}
}

// Seed returns the seed this generator was created with.
func (g *RNG) Seed() uint64 { return g.seed }

// Split derives a child generator whose stream depends only on the parent's
// seed and the label, never on how much of the parent stream was consumed.
// This is the primitive behind reproducible parallel data generation:
// chunk i of a data set always uses Split("chunk", i) of the data set seed.
func (g *RNG) Split(label string, index int) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var buf [8]byte
	v := uint64(index)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	child := g.seed ^ (h.Sum64() * goldenGamma)
	return NewRNG(child)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Int64N returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Int64N(n int64) int64 { return g.r.Int64N(n) }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Letters are the lowercase characters used by random word/key generators.
const Letters = "abcdefghijklmnopqrstuvwxyz"

// RandomWord returns a random lowercase word with length in [minLen, maxLen].
func (g *RNG) RandomWord(minLen, maxLen int) string {
	var b strings.Builder
	g.WriteWord(&b, minLen, maxLen)
	return b.String()
}

// WriteWord appends a random lowercase word with length in [minLen, maxLen]
// to b. It grows b by at most that length, so into a builder already grown it
// allocates nothing.
func (g *RNG) WriteWord(b *strings.Builder, minLen, maxLen int) {
	n := g.wordLen(minLen, maxLen)
	// Letters are drawn into a stack chunk (a WriteByte per letter costs a
	// tenth more time) and copied into the builder, grown up front.
	b.Grow(n)
	var chunk [64]byte
	for n > 0 {
		k := min(n, len(chunk))
		g.letters(chunk[:k])
		b.Write(chunk[:k])
		n -= k
	}
}

// AppendWord appends a random lowercase word with length in [minLen, maxLen]
// to dst and returns the extended slice: the draws WriteWord makes, written
// in place, so into a slice with room it allocates nothing.
func (g *RNG) AppendWord(dst []byte, minLen, maxLen int) []byte {
	n := g.wordLen(minLen, maxLen)
	dst = slices.Grow(dst, n)
	g.letters(dst[len(dst) : len(dst)+n])
	return dst[:len(dst)+n]
}

// wordLen draws a word length in [max(minLen, 1), max(maxLen, minLen)].
func (g *RNG) wordLen(minLen, maxLen int) int {
	if minLen < 1 {
		minLen = 1
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	n := minLen
	if maxLen > minLen {
		n += g.IntN(maxLen - minLen + 1)
	}
	return n
}

// letters fills p with random lowercase letters, one draw each.
func (g *RNG) letters(p []byte) {
	for i := range p {
		p[i] = Letters[g.IntN(len(Letters))]
	}
}

// FNV64 hashes s with FNV-1a; used wherever bdbench needs a stable,
// seed-independent 64-bit hash of a string (key scattering, partitioning).
func FNV64(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a's 64-bit offset basis
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211 // and its prime
	}
	return h
}

// Mix64 is a strong 64-bit bit mixer (splitmix64 finalizer). It is used to
// scramble sequential ids into uncorrelated key spaces, as YCSB does for its
// "scrambled zipfian" request distribution.
func Mix64(x uint64) uint64 {
	x += goldenGamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
