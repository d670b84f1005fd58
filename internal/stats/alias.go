package stats

import "fmt"

// Alias is a Walker alias-method sampler over a finite categorical
// distribution. Construction is O(n); each sample is O(1). bdbench uses it
// for word sampling from LDA topic-word distributions and for categorical
// table columns, where n can reach hundreds of thousands of categories.
// The zero Alias is ready for Build.
type Alias struct {
	prob  []float64
	alias []int32
	work  []int32 // Build's two worklists, small from the front, large from the back
	n     int
}

// NewAlias builds a sampler for the given non-negative weights. Weights need
// not be normalized. It panics if weights is empty or sums to zero, which
// always indicates a programming error in a generator model.
func NewAlias(weights []float64) *Alias {
	a := new(Alias)
	a.Build(weights)
	return a
}

// Build makes a the sampler NewAlias(weights) returns, reusing a's storage:
// rebuilding over no more weights than a has held allocates nothing, so one
// Alias can serve a generator's every draw of a fresh distribution. It panics
// as NewAlias does.
func (a *Alias) Build(weights []float64) {
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
	if cap(a.prob) < n {
		a.prob, a.alias, a.work = make([]float64, n), make([]int32, n), make([]int32, n)
	}
	a.n = n
	// prob holds the scaled probabilities (mean 1) until each is settled;
	// an index sits on at most one worklist, so the two share work.
	prob, alias, work := a.prob[:n], a.alias[:n], a.work[:n]
	small, large := 0, n
	for i, w := range weights {
		prob[i] = w * float64(n) / total
		if prob[i] < 1 {
			work[small] = int32(i)
			small++
		} else {
			large--
			work[large] = int32(i)
		}
	}
	for small > 0 && large < n {
		small--
		s := work[small]
		l := work[large]
		large++
		alias[s] = l
		prob[l] = prob[l] + prob[s] - 1
		if prob[l] < 1 {
			work[small] = l
			small++
		} else {
			large--
			work[large] = l
		}
	}
	for _, i := range work[large:] {
		prob[i] = 1
	}
	for _, i := range work[:small] {
		prob[i] = 1 // numerical residue; treat as certain
	}
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
