package textgen

import (
	"errors"

	"github.com/bdbench/bdbench/internal/stats"
)

// LDA is a Latent Dirichlet Allocation topic model trained with collapsed
// Gibbs sampling. It is the paper's flagship example of a veracity-
// preserving text model (§3.2): learn the dictionary, train α/β-smoothed
// topic distributions on the real data, then sample synthetic documents.
type LDA struct {
	vocab *Vocabulary
	phi   [][]float64 // learned topic-word distributions [LDATopics][V]
	// docTopics holds the estimated topic mixture of each training
	// document; Generate resamples from these so the synthetic corpus
	// reproduces the corpus-level topic mixture, not just a symmetric
	// prior.
	docTopics [][]float64
	aliases   []*stats.Alias
	trained   bool
}

// LDATopics is the number of topics an LDA model learns.
const LDATopics = 4

// The Dirichlet priors, by the standard heuristics: α = 50/LDATopics for
// the document-topic mixtures, β = 0.01 for the topic-word distributions.
// Every expression they enter combines them with a run-time value, so each
// rounds as float64 arithmetic.
const (
	ldaAlpha = 50.0 / LDATopics
	ldaBeta  = 0.01
)

// NewLDA constructs an untrained model.
func NewLDA() *LDA { return &LDA{} }

// ErrNotTrained is returned by Generate when Train has not been called.
var ErrNotTrained = errors.New("textgen: LDA model is not trained")

// Train fits the model to corpus with iters collapsed-Gibbs sweeps. It
// builds the word dictionary from the corpus (the paper's first step),
// assigns every token a topic, and iteratively resamples assignments from
// the collapsed posterior.
func (l *LDA) Train(corpus Corpus, iters int, g *stats.RNG) error {
	if len(corpus) == 0 {
		return errors.New("textgen: cannot train LDA on empty corpus")
	}
	if iters < 1 {
		iters = 1
	}
	l.vocab = BuildVocabulary(corpus)
	docs := l.vocab.Encode(corpus)
	v := l.vocab.Size()
	k := LDATopics

	// Count matrices of the collapsed sampler.
	ndk := make([][]int, len(docs)) // doc -> topic counts
	nkw := make([][]int, k)         // topic -> word counts
	nk := make([]int, k)            // topic totals
	z := make([][]int, len(docs))   // token topic assignments
	for t := 0; t < k; t++ {
		nkw[t] = make([]int, v)
	}
	for d, doc := range docs {
		ndk[d] = make([]int, k)
		z[d] = make([]int, len(doc))
		for i, w := range doc {
			topic := g.IntN(k)
			z[d][i] = topic
			ndk[d][topic]++
			nkw[topic][w]++
			nk[topic]++
		}
	}

	probs := make([]float64, k)
	vBeta := float64(v) * ldaBeta
	for it := 0; it < iters; it++ {
		for d, doc := range docs {
			for i, w := range doc {
				old := z[d][i]
				ndk[d][old]--
				nkw[old][w]--
				nk[old]--

				total := 0.0
				for t := 0; t < k; t++ {
					p := (float64(ndk[d][t]) + ldaAlpha) *
						(float64(nkw[t][w]) + ldaBeta) /
						(float64(nk[t]) + vBeta)
					probs[t] = p
					total += p
				}
				u := g.Float64() * total
				next := 0
				for acc := probs[0]; u > acc && next < k-1; {
					next++
					acc += probs[next]
				}

				z[d][i] = next
				ndk[d][next]++
				nkw[next][w]++
				nk[next]++
			}
		}
	}

	// Posterior point estimates.
	l.phi = make([][]float64, k)
	for t := 0; t < k; t++ {
		row := make([]float64, v)
		den := float64(nk[t]) + vBeta
		for w := 0; w < v; w++ {
			row[w] = (float64(nkw[t][w]) + ldaBeta) / den
		}
		l.phi[t] = row
	}
	l.docTopics = make([][]float64, len(docs))
	for d := range docs {
		row := make([]float64, k)
		den := float64(len(docs[d])) + float64(k)*ldaAlpha
		for t := 0; t < k; t++ {
			row[t] = (float64(ndk[d][t]) + ldaAlpha) / den
		}
		l.docTopics[d] = row
	}
	l.aliases = make([]*stats.Alias, k)
	for t := 0; t < k; t++ {
		l.aliases[t] = stats.NewAlias(l.phi[t])
	}
	l.trained = true
	return nil
}

// Vocabulary returns the dictionary learned during training (nil before).
func (l *LDA) Vocabulary() *Vocabulary { return l.vocab }

// Generate samples a synthetic corpus of docs documents with lengths drawn
// from Poisson(meanLen). Each document's topic mixture is resampled from a
// randomly chosen training document's estimated mixture, so the synthetic
// corpus preserves the training corpus's topic proportions.
func (l *LDA) Generate(g *stats.RNG, docs, meanLen int) (Corpus, error) {
	if !l.trained {
		return nil, ErrNotTrained
	}
	out := make(Corpus, docs)
	l.fill(g, out, meanLen)
	return out, nil
}

// fill samples one document into each slot of dst; l is trained.
func (l *LDA) fill(g *stats.RNG, dst Corpus, meanLen int) {
	lenDist := stats.Poisson{Lambda: float64(meanLen)}
	for d := range dst {
		theta := l.docTopics[g.IntN(len(l.docTopics))]
		thetaAlias := stats.NewAlias(theta)
		n := int(lenDist.Sample(g))
		if n < 1 {
			n = 1
		}
		doc := make(Document, n)
		for i := 0; i < n; i++ {
			topic := thetaAlias.Sample(g)
			doc[i] = l.vocab.Word(l.aliases[topic].Sample(g))
		}
		dst[d] = doc
	}
}
