// Package textgen is the public facade over bdbench's text generation:
// reference corpora, random and frequency-matched text, and the LDA topic
// model (BigDataBench-style veracity-preserving synthesis).
package textgen

import "github.com/bdbench/bdbench/internal/datagen/textgen"

// Document is one generated document (a word sequence).
type Document = textgen.Document

// Corpus is a set of documents.
type Corpus = textgen.Corpus

// Vocabulary indexes a corpus's distinct words.
type Vocabulary = textgen.Vocabulary

// RandomText generates data-independent random text (HiBench-style) from
// its Dictionary, uniformly unless Sampler draws from a learned distribution.
type RandomText = textgen.RandomText

// LDA is a trainable topic model: Train on a real corpus, Generate
// synthetic documents preserving its topic structure.
type LDA = textgen.LDA

// ReferenceCorpus generates the deterministic stand-in for a real text
// corpus used across examples and probes.
func ReferenceCorpus(seed uint64, docs, meanLen int) Corpus {
	return textgen.ReferenceCorpus(seed, docs, meanLen)
}

// BuildVocabulary indexes the corpus's words.
func BuildVocabulary(c Corpus) *Vocabulary { return textgen.BuildVocabulary(c) }

// NewLDA returns an untrained four-topic LDA model.
func NewLDA() *LDA { return textgen.NewLDA() }
