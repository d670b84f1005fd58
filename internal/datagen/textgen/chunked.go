package textgen

import (
	"strings"
	"sync"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chunkDocs is the document count per generation chunk. Small enough that a
// few cores always have work at the default scales, large enough that chunk
// bookkeeping is noise.
const chunkDocs = 256

// GenerateParallel emits docs documents across a bounded worker pool,
// chunked so the corpus depends only on (seed, docs, meanLen) — never on
// the worker count. The chunked corpus is its own canonical output: it is
// not the same byte stream the single-RNG Generate produces, but it is
// byte-identical at workers=1 and workers=N.
func (r RandomText) GenerateParallel(seed uint64, docs, meanLen, workers int) Corpus {
	plan := datagen.PlanChunks(int64(docs), chunkDocs)
	out, err := datagen.Generate(seed, plan, workers, func(g *stats.RNG, c datagen.Chunk) ([]Document, error) {
		return r.Generate(g, int(c.Len()), meanLen), nil
	})
	if err != nil {
		// RandomText cannot fail and panics are impossible by construction.
		panic(err)
	}
	return Corpus(out)
}

// GenerateParallel samples a synthetic corpus like Generate but across a
// bounded worker pool; the trained model is read-only during sampling, so
// chunks share it safely. Output is chunk-deterministic: identical at any
// worker count for the same seed.
func (l *LDA) GenerateParallel(seed uint64, docs, meanLen, workers int) (Corpus, error) {
	if !l.trained {
		return nil, ErrNotTrained
	}
	plan := datagen.PlanChunks(int64(docs), chunkDocs)
	out, err := datagen.Generate(seed, plan, workers, func(g *stats.RNG, c datagen.Chunk) ([]Document, error) {
		return l.Generate(g, int(c.Len()), meanLen)
	})
	return Corpus(out), err
}

// GenerateParallel samples a corpus from the chain across a bounded worker
// pool. The transition tables and the alias sampler cache are frozen at
// Train time and read-only here, so chunks generate concurrently without
// locking; output is chunk-deterministic at any worker count.
func (m *Markov) GenerateParallel(seed uint64, docs, meanLen, workers int) (Corpus, error) {
	if !m.trained {
		return nil, errNotTrainedMarkov
	}
	plan := datagen.PlanChunks(int64(docs), chunkDocs)
	out, err := datagen.Generate(seed, plan, workers, func(g *stats.RNG, c datagen.Chunk) ([]Document, error) {
		return m.Generate(g, int(c.Len()), meanLen)
	})
	return Corpus(out), err
}

// GenerateCorpusParallel emits docs reference documents across a bounded
// worker pool; the hidden model is immutable, so chunks share it safely.
// Output is chunk-deterministic at any worker count.
func (m *ReferenceModel) GenerateCorpusParallel(seed uint64, docs, meanLen, workers int) Corpus {
	plan := datagen.PlanChunks(int64(docs), chunkDocs)
	out, err := datagen.Generate(seed, plan, workers, func(g *stats.RNG, c datagen.Chunk) ([]Document, error) {
		return m.GenerateCorpus(g, int(c.Len()), meanLen), nil
	})
	if err != nil {
		// The reference model cannot fail by construction.
		panic(err)
	}
	return Corpus(out)
}

// ReferenceCorpusParallel is ReferenceCorpus built through the chunked
// pipeline: same hidden model, worker-count-independent output.
func ReferenceCorpusParallel(seed uint64, docs, meanLen, workers int) Corpus {
	return NewReferenceModel().GenerateCorpusParallel(seed, docs, meanLen, workers)
}

// The "text" corpus is corpusDocsPerScale documents per scale unit of
// corpusMeanLen mean words each, in dictionary mode over the built-in themed
// word list.
const (
	corpusDocsPerScale = 1000
	corpusMeanLen      = 12
)

// CorpusGen adapts dictionary-mode random text to the datagen.Chunked
// corpus contract: documents rendered one per line.
type CorpusGen struct{}

// Name implements datagen.Chunked.
func (CorpusGen) Name() string { return "text" }

// corpusText is built once: GenerateChunk runs per chunk, and rebuilding
// the dictionary there would put a redundant allocation on the parallel hot
// path.
var corpusText = sync.OnceValue(func() RandomText {
	return RandomText{Dictionary: DefaultDictionary()}
})

// Plan implements datagen.Chunked.
func (CorpusGen) Plan(scale int) []datagen.Chunk {
	if scale < 1 {
		scale = 1
	}
	return datagen.PlanChunks(int64(scale)*corpusDocsPerScale, chunkDocs)
}

// GenerateChunk implements datagen.Chunked.
func (CorpusGen) GenerateChunk(g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	var sb strings.Builder
	for _, doc := range corpusText().Generate(g, int(c.Len()), corpusMeanLen) {
		sb.WriteString(strings.Join(doc, " "))
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), nil
}
