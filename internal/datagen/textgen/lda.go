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
	K     int     // number of topics
	Alpha float64 // document-topic Dirichlet prior
	Beta  float64 // topic-word Dirichlet prior

	vocab *Vocabulary
	phi   [][]float64 // learned topic-word distributions [K][V]
	// docTopics holds the estimated topic mixture of each training
	// document; Generate resamples from these so the synthetic corpus
	// reproduces the corpus-level topic mixture, not just a symmetric
	// prior.
	docTopics [][]float64
	aliases   []*stats.Alias
	trained   bool
}

// NewLDA constructs an untrained model. K must be >= 2; alpha and beta
// default to 50/K and 0.01 if non-positive, the standard heuristics.
func NewLDA(k int, alpha, beta float64) *LDA {
	if k < 2 {
		k = 2
	}
	if alpha <= 0 {
		alpha = 50 / float64(k)
	}
	if beta <= 0 {
		beta = 0.01
	}
	return &LDA{K: k, Alpha: alpha, Beta: beta}
}

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
	k := l.K

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
	vBeta := float64(v) * l.Beta
	for it := 0; it < iters; it++ {
		for d, doc := range docs {
			for i, w := range doc {
				old := z[d][i]
				ndk[d][old]--
				nkw[old][w]--
				nk[old]--

				total := 0.0
				for t := 0; t < k; t++ {
					p := (float64(ndk[d][t]) + l.Alpha) *
						(float64(nkw[t][w]) + l.Beta) /
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
			row[w] = (float64(nkw[t][w]) + l.Beta) / den
		}
		l.phi[t] = row
	}
	l.docTopics = make([][]float64, len(docs))
	for d := range docs {
		row := make([]float64, k)
		den := float64(len(docs[d])) + float64(k)*l.Alpha
		for t := 0; t < k; t++ {
			row[t] = (float64(ndk[d][t]) + l.Alpha) / den
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
	lenDist := stats.Poisson{Lambda: float64(meanLen)}
	out := make(Corpus, 0, docs)
	for d := 0; d < docs; d++ {
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
		out = append(out, doc)
	}
	return out, nil
}
