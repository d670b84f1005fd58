package stats

import "fmt"

// Alias is a Walker alias-method sampler over a finite categorical
// distribution. Construction is O(n); each sample is O(1). bdbench uses it
// for word sampling from LDA topic-word distributions and for categorical
// table columns, where n can reach hundreds of thousands of categories.
type Alias struct {
	prob  []float64
	alias []int32
	n     int
}

// NewAlias builds a sampler for the given non-negative weights. Weights need
// not be normalized. It panics if weights is empty or sums to zero, which
// always indicates a programming error in a generator model.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("stats: NewAlias with no weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("stats: NewAlias weight %d is negative", i))
		}
		total += w
	}
	if total == 0 {
		panic("stats: NewAlias weights sum to zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n), n: n}
	// Scaled probabilities; mean 1.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical residue; treat as certain
	}
	return a
}

// Sample draws a category index in [0, n).
func (a *Alias) Sample(g *RNG) int {
	i := g.IntN(a.n)
	if g.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Categorical is an IntSampler over explicit weights, backed by an Alias
// table. It adapts Alias to the IntSampler interface used by key choosers.
type Categorical struct {
	alias *Alias
}

// NewCategorical builds an IntSampler that draws index i with probability
// proportional to weights[i].
func NewCategorical(weights []float64) *Categorical {
	return &Categorical{alias: NewAlias(weights)}
}

// Next implements IntSampler.
func (c *Categorical) Next(g *RNG) int64 { return int64(c.alias.Sample(g)) }
