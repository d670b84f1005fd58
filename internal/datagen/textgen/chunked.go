package textgen

import (
	"sync"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chunkDocs is the document count per generation chunk. Small enough that a
// few cores always have work at the default scales, large enough that chunk
// bookkeeping is noise.
const chunkDocs = 256

// fillCorpus generates docs documents in chunks of chunkDocs, fill drawing
// each chunk's documents into its window of the corpus.
func fillCorpus(seed uint64, docs, workers int, fill func(g *stats.RNG, dst Corpus)) (Corpus, error) {
	return datagen.Generate(seed, datagen.PlanChunks(int64(docs), chunkDocs), workers,
		func(g *stats.RNG, _ datagen.Chunk, dst []Document) error {
			fill(g, dst)
			return nil
		})
}

// GenerateParallel emits docs documents across a bounded worker pool,
// chunked so the corpus depends only on (seed, docs, meanLen) — never on
// the worker count. The chunked corpus is its own canonical output: it is
// not the same byte stream the single-RNG Generate produces, but it is
// byte-identical at workers=1 and workers=N.
func (r RandomText) GenerateParallel(seed uint64, docs, meanLen, workers int) Corpus {
	r = r.withDefaults()
	out, err := fillCorpus(seed, docs, workers, func(g *stats.RNG, dst Corpus) { r.fill(g, dst, meanLen) })
	if err != nil {
		// RandomText cannot fail and panics are impossible by construction.
		panic(err)
	}
	return out
}

// GenerateParallel samples a synthetic corpus like Generate but across a
// bounded worker pool; the trained model is read-only during sampling, so
// chunks share it safely. Output is chunk-deterministic: identical at any
// worker count for the same seed.
func (l *LDA) GenerateParallel(seed uint64, docs, meanLen, workers int) (Corpus, error) {
	if !l.trained {
		return nil, ErrNotTrained
	}
	return fillCorpus(seed, docs, workers, func(g *stats.RNG, dst Corpus) { l.fill(g, dst, meanLen) })
}

// GenerateCorpusParallel emits docs reference documents across a bounded
// worker pool; the hidden model is immutable, so chunks share it safely.
// Output is chunk-deterministic at any worker count.
func (m *ReferenceModel) GenerateCorpusParallel(seed uint64, docs, meanLen, workers int) Corpus {
	out, err := fillCorpus(seed, docs, workers, func(g *stats.RNG, dst Corpus) { m.fill(g, dst, meanLen) })
	if err != nil {
		// The reference model cannot fail by construction.
		panic(err)
	}
	return out
}

// ReferenceCorpusParallel is ReferenceCorpus built through the chunked
// pipeline: same hidden model, worker-count-independent output.
func ReferenceCorpusParallel(seed uint64, docs, meanLen, workers int) Corpus {
	return NewReferenceModel().GenerateCorpusParallel(seed, docs, meanLen, workers)
}

// The "text" corpus is corpusDocsPerScale documents per scale unit of
// corpusMeanLen mean words each, sampled uniformly from the built-in themed
// word list.
const (
	corpusDocsPerScale = 1000
	corpusMeanLen      = 12
)

// CorpusGen adapts random text over the built-in dictionary to the
// datagen.Chunked corpus contract: documents rendered one per line.
type CorpusGen struct{}

// Name implements datagen.Chunked.
func (CorpusGen) Name() string { return "text" }

// corpusText is built once: AppendChunk runs per chunk, and rebuilding
// the dictionary and its sampler there would put a redundant allocation on
// the parallel hot path.
var corpusText = sync.OnceValue(func() RandomText {
	return RandomText{Dictionary: DefaultDictionary()}.withDefaults()
})

// Plan implements datagen.Chunked.
func (CorpusGen) Plan(scale int) []datagen.Chunk {
	if scale < 1 {
		scale = 1
	}
	return datagen.PlanChunks(int64(scale)*corpusDocsPerScale, chunkDocs)
}

// AppendChunk implements datagen.Chunked: each document is drawn into one
// reused word list and written space-separated.
func (CorpusGen) AppendChunk(dst []byte, g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	r := corpusText()
	var words [64]string
	for range c.Len() {
		for i, w := range r.doc(g, corpusMeanLen, words[:0]) {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, w...)
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}
