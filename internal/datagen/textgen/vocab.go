// Package textgen implements the text data generators of bdbench's Function
// layer. Following Figure 3 of "On Big Data Benchmarking", a text generator
// first learns a model from a reference ("real") corpus — the paper's worked
// example is Latent Dirichlet Allocation: "This generator first learns from
// a real text data set to obtain a word dictionary. It then trains the
// parameters α and β of a LDA model using this data set. Finally, it
// generates synthetic text data using the trained LDA model." — and then
// produces synthetic documents at a requested volume and velocity.
//
// Three model families are provided, mirroring the veracity spectrum of
// Table 1: RandomText (veracity un-considered, HiBench-style), Markov
// (partially considered), and LDA (considered, BigDataBench-style).
package textgen

import "strings"

// Document is an ordered sequence of word tokens.
type Document []string

// Corpus is a collection of documents.
type Corpus []Document

// Words returns the total token count across the corpus.
func (c Corpus) Words() int {
	n := 0
	for _, d := range c {
		n += len(d)
	}
	return n
}

// Text renders the corpus as newline-separated documents of space-separated
// tokens — the plain-text wire format.
func (c Corpus) Text() string {
	var b strings.Builder
	for i, d := range c {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(strings.Join(d, " "))
	}
	return b.String()
}

// Vocabulary maps words to dense integer ids, the representation LDA
// training operates on. Ids are assigned in first-seen order.
type Vocabulary struct {
	byWord map[string]int
	words  []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byWord: make(map[string]int)}
}

// BuildVocabulary scans a corpus and returns its word dictionary — step one
// of the paper's LDA recipe.
func BuildVocabulary(c Corpus) *Vocabulary {
	v := NewVocabulary()
	for _, d := range c {
		for _, w := range d {
			v.Add(w)
		}
	}
	return v
}

// Add interns the word and returns its id.
func (v *Vocabulary) Add(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	id := len(v.words)
	v.byWord[word] = id
	v.words = append(v.words, word)
	return id
}

// ID returns the id for word, or -1 if unknown.
func (v *Vocabulary) ID(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	return -1
}

// Word returns the word with the given id.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// Size returns the number of distinct words.
func (v *Vocabulary) Size() int { return len(v.words) }

// Words returns the interned words in id order.
func (v *Vocabulary) Words() []string {
	return append([]string(nil), v.words...)
}

// Encode maps a corpus onto id sequences, interning unseen words.
func (v *Vocabulary) Encode(c Corpus) [][]int {
	out := make([][]int, len(c))
	for i, d := range c {
		ids := make([]int, len(d))
		for j, w := range d {
			ids[j] = v.Add(w)
		}
		out[i] = ids
	}
	return out
}

// WordDistribution returns the corpus-level unigram distribution over the
// vocabulary in id order; it is the "word distribution" input to the
// veracity metrics of §5.1.
func WordDistribution(c Corpus, v *Vocabulary) []float64 {
	counts := make([]float64, v.Size())
	total := 0.0
	for _, d := range c {
		for _, w := range d {
			if id := v.ID(w); id >= 0 {
				counts[id]++
				total++
			}
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts
}
