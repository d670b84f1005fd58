package stats

import (
	"math"
	"sort"
	"time"
)

// Histogram is a fixed-width binned histogram over [Min, Max). Values below
// Min and at or above Max are tallied separately (Under, Over) rather than
// folded into the edge bins, so the bin counts describe only the histogram's
// actual domain. It is the workhorse behind per-column table statistics and
// distribution comparison.
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	total    uint64
	under    uint64
	over     uint64
}

// NewHistogram creates a histogram with bins equal-width buckets on
// [min, max). It panics if bins <= 0 or max <= min.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram bins must be positive")
	}
	if max <= min {
		panic("stats: NewHistogram max must exceed min")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, bins)}
}

// Observe records one value. Out-of-range values are counted in Under/Over
// instead of polluting the first/last bins.
func (h *Histogram) Observe(v float64) {
	h.total++
	if v < h.Min {
		h.under++
		return
	}
	if v >= h.Max {
		h.over++
		return
	}
	idx := int((v - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
}

// Total returns the number of observed values, including out-of-range ones.
func (h *Histogram) Total() uint64 { return h.total }

// InRange returns the number of observations inside [Min, Max).
func (h *Histogram) InRange() uint64 { return h.total - h.under - h.over }

// Probabilities returns the bin frequencies normalized over the in-range
// observations, so the vector is a proper distribution over the histogram's
// domain regardless of out-of-range mass. If no observation landed in range
// it returns a uniform distribution, which keeps divergence computations
// well-defined for degenerate inputs.
func (h *Histogram) Probabilities() []float64 {
	p := make([]float64, len(h.Counts))
	inRange := h.InRange()
	if inRange == 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return p
	}
	for i, c := range h.Counts {
		p[i] = float64(c) / float64(inRange)
	}
	return p
}

// ExtendedProbabilities returns the distribution over bins+2 cells: the
// under-range mass first, the bin frequencies, then the over-range mass, all
// normalized by the total observation count. Unlike Probabilities it
// accounts for every observation, so comparing two histograms with the same
// bounds also penalizes mass that fell outside them. Empty histograms yield
// a uniform vector.
func (h *Histogram) ExtendedProbabilities() []float64 {
	p := make([]float64, len(h.Counts)+2)
	if h.total == 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return p
	}
	p[0] = float64(h.under) / float64(h.total)
	for i, c := range h.Counts {
		p[i+1] = float64(c) / float64(h.total)
	}
	p[len(p)-1] = float64(h.over) / float64(h.total)
	return p
}

// FreqTable counts occurrences of discrete string values — e.g. words in a
// corpus or categories in a column — and converts them into aligned
// probability vectors for divergence computations.
type FreqTable struct {
	Counts map[string]uint64
	total  uint64
}

// NewFreqTable returns an empty frequency table.
func NewFreqTable() *FreqTable {
	return &FreqTable{Counts: make(map[string]uint64)}
}

// Observe records one occurrence of key.
func (f *FreqTable) Observe(key string) {
	f.Counts[key]++
	f.total++
}

// Total returns the total number of observations.
func (f *FreqTable) Total() uint64 { return f.total }

// Distinct returns the number of distinct keys.
func (f *FreqTable) Distinct() int { return len(f.Counts) }

// TopK returns the k most frequent keys in descending count order.
func (f *FreqTable) TopK(k int) []string {
	keys := make([]string, 0, len(f.Counts))
	for key := range f.Counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := f.Counts[keys[i]], f.Counts[keys[j]]
		if ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	if k < len(keys) {
		keys = keys[:k]
	}
	return keys
}

// AlignedProbabilities returns probability vectors for f and g over the
// union of their keys, in a deterministic key order. The vectors are
// suitable inputs for KLDivergence and friends.
func AlignedProbabilities(f, g *FreqTable) (p, q []float64) {
	keys := make(map[string]struct{}, len(f.Counts)+len(g.Counts))
	for k := range f.Counts {
		keys[k] = struct{}{}
	}
	for k := range g.Counts {
		keys[k] = struct{}{}
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	p = make([]float64, len(ordered))
	q = make([]float64, len(ordered))
	for i, k := range ordered {
		if f.total > 0 {
			p[i] = float64(f.Counts[k]) / float64(f.total)
		}
		if g.total > 0 {
			q[i] = float64(g.Counts[k]) / float64(g.total)
		}
	}
	return p, q
}

// LatencyHistogram records durations in exponentially sized buckets,
// giving HDR-style constant relative error from microseconds to minutes with
// a small fixed footprint. It is the backing store for the latency
// percentiles bdbench reports as user-perceivable metrics.
type LatencyHistogram struct {
	counts [buckets]uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

// 64 sub-buckets per power of two, from 1us granularity up to ~1.2 hours.
const (
	subBucketBits = 6
	subBuckets    = 1 << subBucketBits
	ranges        = 32
	buckets       = ranges * subBuckets
)

// bucketIndex maps a duration in microseconds to a bucket.
func bucketIndex(us uint64) int {
	if us < subBuckets {
		return int(us)
	}
	// Position of the highest bit beyond the sub-bucket resolution.
	exp := 63 - subBucketBits
	for us>>(uint(exp)+subBucketBits) == 0 {
		exp--
	}
	// exp is now such that us >> exp is in [subBuckets, 2*subBuckets).
	r := exp + 1
	if r >= ranges {
		r = ranges - 1
	}
	mantissa := us >> uint(r)
	if mantissa >= subBuckets {
		mantissa = subBuckets - 1
	}
	return r*subBuckets + int(mantissa)
}

// bucketValue returns a representative duration for bucket i (bucket start).
func bucketValue(i int) time.Duration {
	r := i / subBuckets
	m := uint64(i % subBuckets)
	if r == 0 {
		return time.Duration(m) * time.Microsecond
	}
	return time.Duration(m<<uint(r)) * time.Microsecond
}

// Count returns the number of recorded durations.
func (l *LatencyHistogram) Count() uint64 { return l.total }

// Sum returns the total of all recorded durations (exact, not
// bucket-approximated) — the basis of wall-time accounting such as the
// data-generation metric family.
func (l *LatencyHistogram) Sum() time.Duration { return l.sum }

// Mean returns the mean recorded duration.
func (l *LatencyHistogram) Mean() time.Duration {
	if l.total == 0 {
		return 0
	}
	return l.sum / time.Duration(l.total)
}

// Max returns the largest recorded duration.
func (l *LatencyHistogram) Max() time.Duration { return l.max }

// Quantile returns the q-quantile (0..1) of recorded durations.
func (l *LatencyHistogram) Quantile(q float64) time.Duration {
	if l.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(l.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range l.counts {
		cum += c
		if cum >= target {
			return bucketValue(i)
		}
	}
	return l.max
}

// Merge adds other's samples into l.
func (l *LatencyHistogram) Merge(other *LatencyHistogram) {
	for i, c := range other.counts {
		l.counts[i] += c
	}
	l.total += other.total
	l.sum += other.sum
	if other.max > l.max {
		l.max = other.max
	}
}
