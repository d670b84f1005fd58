package textgen

import (
	"errors"
	"strings"

	"github.com/bdbench/bdbench/internal/stats"
)

// errNotTrainedMarkov is returned by Generate and GenerateParallel before
// Train.
var errNotTrainedMarkov = errors.New("textgen: Markov model is not trained")

// Markov is an order-k word-level Markov chain text model: a middle point on
// the veracity spectrum between pure random text and a full topic model. It
// preserves local word co-occurrence (n-gram structure) but not global
// document-level topical coherence.
type Markov struct {
	Order int

	transitions map[string]*stats.FreqTable
	starts      *stats.FreqTable
	trained     bool

	// aliasCache holds one alias sampler per state. It is built eagerly at
	// the end of Train — the transition tables are frozen then — and
	// read-only afterwards, so concurrent chunk generation
	// (GenerateParallel) samples without any locking.
	aliasCache map[string]aliasEntry
}

type aliasEntry struct {
	words []string
	alias *stats.Alias
}

// NewMarkov returns an untrained chain of the given order (clamped to >= 1).
func NewMarkov(order int) *Markov {
	if order < 1 {
		order = 1
	}
	return &Markov{
		Order:       order,
		transitions: make(map[string]*stats.FreqTable),
		starts:      stats.NewFreqTable(),
		aliasCache:  make(map[string]aliasEntry),
	}
}

const stateSep = "\x1f"

// startState keys the document-start sampler in the alias cache.
const startState = "\x00start"

// Train counts transition frequencies over the corpus.
func (m *Markov) Train(corpus Corpus) error {
	if len(corpus) == 0 {
		return errors.New("textgen: cannot train Markov chain on empty corpus")
	}
	for _, doc := range corpus {
		if len(doc) == 0 {
			continue
		}
		limit := len(doc) - m.Order
		if limit < 0 {
			limit = 0
		}
		if len(doc) >= m.Order {
			m.starts.Observe(strings.Join(doc[:m.Order], stateSep))
		}
		for i := 0; i < limit; i++ {
			state := strings.Join(doc[i:i+m.Order], stateSep)
			ft, ok := m.transitions[state]
			if !ok {
				ft = stats.NewFreqTable()
				m.transitions[state] = ft
			}
			ft.Observe(doc[i+m.Order])
		}
	}
	if m.starts.Total() == 0 {
		return errors.New("textgen: corpus documents shorter than Markov order")
	}
	// Freeze the samplers now so Generate never mutates shared state.
	m.buildSampler(startState, m.starts)
	for state, ft := range m.transitions {
		m.buildSampler(state, ft)
	}
	m.trained = true
	return nil
}

// buildSampler constructs and caches the alias sampler for one state;
// called only from Train, before the cache goes read-only.
func (m *Markov) buildSampler(state string, ft *stats.FreqTable) {
	m.aliasCache[state] = m.sampler(state, ft)
}

// sampler returns the frozen alias sampler for a state.
func (m *Markov) sampler(state string, ft *stats.FreqTable) aliasEntry {
	if e, ok := m.aliasCache[state]; ok {
		return e
	}
	// Unreachable after Train (every sampled state is prebuilt); build an
	// uncached one-off rather than mutate the read-only cache.
	words := make([]string, 0, len(ft.Counts))
	weights := make([]float64, 0, len(ft.Counts))
	for _, w := range ft.TopK(len(ft.Counts)) {
		words = append(words, w)
		weights = append(weights, float64(ft.Counts[w]))
	}
	return aliasEntry{words: words, alias: stats.NewAlias(weights)}
}

// Generate samples docs documents with lengths from Poisson(meanLen). When
// the chain reaches a state with no outgoing transitions it restarts from a
// start state, mirroring document boundaries in training data.
func (m *Markov) Generate(g *stats.RNG, docs, meanLen int) (Corpus, error) {
	if !m.trained {
		return nil, errNotTrainedMarkov
	}
	lenDist := stats.Poisson{Lambda: float64(meanLen)}
	startEntry := m.sampler(startState, m.starts)
	out := make(Corpus, 0, docs)
	for d := 0; d < docs; d++ {
		n := int(lenDist.Sample(g))
		if n < m.Order {
			n = m.Order
		}
		doc := make(Document, 0, n)
		start := startEntry.words[startEntry.alias.Sample(g)]
		doc = append(doc, strings.Split(start, stateSep)...)
		for len(doc) < n {
			state := strings.Join(doc[len(doc)-m.Order:], stateSep)
			ft, ok := m.transitions[state]
			if !ok || ft.Total() == 0 {
				restart := startEntry.words[startEntry.alias.Sample(g)]
				doc = append(doc, strings.Split(restart, stateSep)...)
				continue
			}
			e := m.sampler(state, ft)
			doc = append(doc, e.words[e.alias.Sample(g)])
		}
		if len(doc) > n {
			doc = doc[:n]
		}
		out = append(out, doc)
	}
	return out, nil
}
