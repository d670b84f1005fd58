package tablegen

import (
	"sync"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// ReferenceTableParallel generates the hidden reference table through the
// chunked worker pool: same spec as ReferenceTable, rows identical at any
// worker count (chunk RNGs derive from (seed, chunk index), and primary
// keys from absolute row numbers).
func ReferenceTableParallel(seed uint64, rows int64, workers int) *data.Table {
	return ReferenceSpec(seed).GenerateParallel(rows, workers)
}

// corpusRowsPerScale is the "table" corpus's row count per scale unit.
const corpusRowsPerScale = 2000

// TableCorpus adapts the reference orders table to the datagen.Chunked
// corpus contract: rows rendered as one tab-separated line each. The corpus
// seed passed to the driver governs chunk RNGs; the spec's own Seed is
// unused on this path.
type TableCorpus struct{}

// Name implements datagen.Chunked.
func (TableCorpus) Name() string { return "table" }

// corpusSpec is built once: AppendChunk runs per chunk, and rebuilding
// the column generators there would be redundant allocation on the parallel
// hot path.
var corpusSpec = sync.OnceValue(func() TableSpec { return ReferenceSpec(0) })

// Plan implements datagen.Chunked.
func (TableCorpus) Plan(scale int) []datagen.Chunk {
	if scale < 1 {
		scale = 1
	}
	return datagen.PlanChunks(int64(scale)*corpusRowsPerScale, corpusSpec().chunkSize())
}

// AppendChunk implements datagen.Chunked: every row of the chunk is filled
// into one reused row and written as its values' text, tab-separated.
func (TableCorpus) AppendChunk(dst []byte, g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	spec := corpusSpec()
	row := make(data.Row, len(spec.Columns))
	for r := c.Start; r < c.End; r++ {
		for i, v := range spec.fillRow(g, r, row) {
			if i > 0 {
				dst = append(dst, '\t')
			}
			dst = v.AppendText(dst)
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}
