// Package textgen is the public facade over bdbench's text generation:
// reference corpora, random and frequency-matched text, Markov chains and
// the LDA topic model (BigDataBench-style veracity-preserving synthesis).
package textgen

import "github.com/bdbench/bdbench/internal/datagen/textgen"

// Document is one generated document (a word sequence).
type Document = textgen.Document

// Corpus is a set of documents.
type Corpus = textgen.Corpus

// Vocabulary indexes a corpus's distinct words.
type Vocabulary = textgen.Vocabulary

// RandomText generates data-independent random text (HiBench-style); set
// Sampler to draw words from a learned distribution instead.
type RandomText = textgen.RandomText

// LDA is a trainable topic model: Train on a real corpus, Generate
// synthetic documents preserving its topic structure.
type LDA = textgen.LDA

// Markov is an order-N word chain model.
type Markov = textgen.Markov

// ReferenceCorpus generates the deterministic stand-in for a real text
// corpus used across examples and probes.
func ReferenceCorpus(seed uint64, docs, meanLen int) Corpus {
	return textgen.ReferenceCorpus(seed, docs, meanLen)
}

// BuildVocabulary indexes the corpus's words.
func BuildVocabulary(c Corpus) *Vocabulary { return textgen.BuildVocabulary(c) }

// NewLDA returns an untrained LDA model with k topics; zero alpha/beta use
// defaults.
func NewLDA(k int, alpha, beta float64) *LDA { return textgen.NewLDA(k, alpha, beta) }

// NewMarkov returns an untrained order-N chain model.
func NewMarkov(order int) *Markov { return textgen.NewMarkov(order) }
