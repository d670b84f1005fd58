package textgen

import (
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// This file provides the "real data set" of Figure 3 step 1. bdbench cannot
// ship real web crawls, so the reference corpus is produced by a *hidden*
// ground-truth topic model over a fixed English word list: the generator
// under test never sees the hidden parameters, only the emitted corpus.
// That substitution gives veracity experiments a known reference
// distribution while exercising exactly the learn-then-generate code path
// the paper describes.

// baseWords is a fixed list of common English words used to build the hidden
// topic vocabularies. The list is grouped loosely by theme so the hidden
// topics are genuinely distinguishable, which is what makes the LDA recovery
// experiment meaningful.
var baseWords = [][]string{
	// technology
	{"data", "system", "network", "server", "query", "index", "cache",
		"storage", "compute", "cluster", "node", "latency", "throughput",
		"engine", "kernel", "thread", "memory", "disk", "packet", "protocol",
		"database", "table", "record", "schema", "shard", "replica", "log",
		"stream", "batch", "pipeline"},
	// commerce
	{"price", "market", "order", "product", "customer", "store", "sale",
		"payment", "cart", "item", "discount", "review", "rating", "shipping",
		"invoice", "account", "balance", "credit", "refund", "catalog",
		"brand", "stock", "supply", "demand", "retail", "purchase", "deal",
		"offer", "coupon", "receipt"},
	// nature
	{"river", "mountain", "forest", "ocean", "weather", "storm", "rain",
		"wind", "cloud", "valley", "meadow", "stone", "tree", "leaf",
		"flower", "bird", "fish", "wolf", "bear", "deer", "snow", "ice",
		"summer", "winter", "spring", "autumn", "dawn", "dusk", "field",
		"island"},
	// society
	{"city", "people", "street", "school", "family", "house", "music",
		"story", "friend", "child", "game", "team", "law", "news", "work",
		"travel", "food", "health", "book", "art", "film", "stage", "crowd",
		"voice", "language", "history", "culture", "market2", "festival",
		"journey"},
}

// ReferenceModel is the hidden ground-truth generator behind the reference
// corpus. Exported so veracity experiments can measure model recovery, but
// generators under test must not peek at it (enforced by convention: only
// the veracity package touches Phi/ThetaAlpha).
type ReferenceModel struct {
	Topics     int
	Vocab      *Vocabulary
	Phi        [][]float64 // topic-word distributions
	ThetaAlpha float64     // symmetric Dirichlet concentration for documents
	aliases    []*stats.Alias
}

// NewReferenceModel constructs the hidden model with one topic per theme in
// baseWords. Each topic concentrates 85% of its mass on its own theme words
// (zipf-tilted) and spreads 15% over the rest of the vocabulary, giving
// natural-language-like heavy-tailed word frequencies.
func NewReferenceModel() *ReferenceModel {
	vocab := NewVocabulary()
	for _, group := range baseWords {
		for _, w := range group {
			vocab.Add(w)
		}
	}
	k := len(baseWords)
	v := vocab.Size()
	phi := make([][]float64, k)
	for t := 0; t < k; t++ {
		row := make([]float64, v)
		background := 0.15 / float64(v)
		for i := range row {
			row[i] = background
		}
		inTopic := 0.85
		group := baseWords[t]
		// Zipf tilt within the theme: weight 1/(rank+1).
		totalW := 0.0
		for r := range group {
			totalW += 1 / float64(r+1)
		}
		for r, w := range group {
			row[vocab.ID(w)] += inTopic * (1 / float64(r+1)) / totalW
		}
		phi[t] = row
	}
	m := &ReferenceModel{Topics: k, Vocab: vocab, Phi: phi, ThetaAlpha: 0.3}
	m.aliases = make([]*stats.Alias, k)
	for t := 0; t < k; t++ {
		m.aliases[t] = stats.NewAlias(phi[t])
	}
	return m
}

// TopicWord draws one word from the topic's word distribution.
func (m *ReferenceModel) TopicWord(g *stats.RNG, topic int) string {
	return m.Vocab.Word(m.aliases[topic].Sample(g))
}

// GenerateCorpus emits docs documents whose lengths are drawn from
// Poisson(meanLen), each from a fresh document-topic mixture.
func (m *ReferenceModel) GenerateCorpus(g *stats.RNG, docs, meanLen int) Corpus {
	out := make(Corpus, docs)
	m.fill(g, out, meanLen)
	return out
}

// fill draws one document into each slot of dst. The documents are cut
// from one slab, and each document's topic mixture is drawn into one reused
// buffer and table, so dst costs a few allocations, not several per document.
func (m *ReferenceModel) fill(g *stats.RNG, dst Corpus, meanLen int) {
	lenDist := stats.Poisson{Lambda: float64(meanLen)}
	alpha, theta := make([]float64, m.Topics), make([]float64, m.Topics)
	for i := range alpha {
		alpha[i] = m.ThetaAlpha
	}
	var thetaAlias stats.Alias
	words := datagen.Slab[string]{Size: len(dst)*meanLen*9/8 + 16}
	for d := range dst {
		stats.DirichletSample(g, alpha, theta)
		thetaAlias.Build(theta)
		doc := words.Cut(max(int(lenDist.Sample(g)), 1))
		for i := range doc {
			doc[i] = m.TopicWord(g, thetaAlias.Sample(g))
		}
		dst[d] = doc
	}
}

// ReferenceCorpus returns the standard reference corpus for a seed: the
// "real text data set" every text-generation experiment starts from.
func ReferenceCorpus(seed uint64, docs, meanLen int) Corpus {
	m := NewReferenceModel()
	return m.GenerateCorpus(stats.NewRNG(seed), docs, meanLen)
}
