package textgen

import (
	"slices"

	"github.com/bdbench/bdbench/internal/stats"
)

// RandomText emulates the veracity-unaware generators of HiBench, GridMix
// and PigMix: synthetic words drawn independently of any real data set
// ("the synthetic data sets are either randomly generated using the programs
// in the Hadoop distribution or created using some statistic distributions").
// Each word is sampled from Dictionary, uniformly unless Sampler sets another
// distribution over its indexes.
type RandomText struct {
	// Dictionary is the word list sampled; it must not be empty.
	Dictionary []string
	// Sampler chooses dictionary indexes; defaults to uniform.
	Sampler stats.IntSampler
}

// Generate emits docs documents with lengths drawn from Poisson(meanLen).
func (r RandomText) Generate(g *stats.RNG, docs, meanLen int) Corpus {
	out := make(Corpus, docs)
	r.withDefaults().fill(g, out, meanLen)
	return out
}

// fill draws one document into each slot of dst; r has its defaults filled in.
func (r RandomText) fill(g *stats.RNG, dst Corpus, meanLen int) {
	for i := range dst {
		dst[i] = r.doc(g, meanLen, nil)
	}
}

// withDefaults fills in the dictionary's uniform sampler. An empty
// Dictionary is the caller's mistake, and panics.
func (r RandomText) withDefaults() RandomText {
	if len(r.Dictionary) == 0 {
		panic("textgen: RandomText.Dictionary is empty")
	}
	if r.Sampler == nil {
		r.Sampler = stats.UniformInt{Count: int64(len(r.Dictionary))}
	}
	return r
}

// doc draws one document — its Poisson(meanLen) length, then its words — and
// appends the words to words. It is the one sequence of draws behind
// Generate and the "text" corpus; r has its defaults filled in.
func (r RandomText) doc(g *stats.RNG, meanLen int, words Document) Document {
	n := max(int(stats.Poisson{Lambda: float64(meanLen)}.Sample(g)), 1)
	words = slices.Grow(words, n)
	for range n {
		words = append(words, r.Dictionary[int(r.Sampler.Next(g))%len(r.Dictionary)])
	}
	return words
}

// DefaultDictionary returns a flat copy of the built-in themed word list,
// the dictionary random text samples. It is one allocation.
func DefaultDictionary() []string {
	return slices.Concat(baseWords...)
}
