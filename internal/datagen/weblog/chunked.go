package weblog

import (
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chunkRecords is the record count per generation chunk.
const chunkRecords = 2048

// nominalGap is the expected inter-record spacing (the mean of the 0–5s
// uniform gap); chunk time bases are placed at Start*nominalGap so the log
// timeline advances consistently at any worker count.
const nominalGap = 2500 * time.Millisecond

// FromTableParallel generates n log records from the orders table across a
// bounded worker pool. Each chunk starts a fresh session at a nominal time
// base derived from its record range, with its RNG derived from (seed,
// chunk index) — so the log is identical at any worker count.
func (gen Generator) FromTableParallel(seed uint64, orders *data.Table, n, workers int) ([]Record, error) {
	custIdx, prodIdx, err := gen.tableIndexes(orders)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(seed, datagen.PlanChunks(int64(n), chunkRecords), workers,
		func(g *stats.RNG, c datagen.Chunk) ([]Record, error) {
			return gen.chunk(g, orders, custIdx, prodIdx, c), nil
		})
}

// chunk emits one chunk's records from its nominal time base — the single
// definition of chunked log output, shared by FromTableParallel and the
// LogCorpus adapter so the two can never drift apart.
func (gen Generator) chunk(g *stats.RNG, orders *data.Table, custIdx, prodIdx int, c datagen.Chunk) []Record {
	at := gen.start().Add(time.Duration(c.Start) * nominalGap)
	return gen.sessions(g, orders, custIdx, prodIdx, int(c.Len()), at)
}

// corpusRecordsPerScale is the "weblog" corpus's record count per scale unit.
const corpusRecordsPerScale = 5000

// LogCorpus adapts the web-log generator (at its defaults) to the
// datagen.Chunked corpus contract: Apache combined-log lines derived from an
// orders table.
type LogCorpus struct {
	// Orders supplies the table sessions derive from; it is called lazily
	// so registries can defer table construction, and must return the same
	// table on every call.
	Orders func() *data.Table
}

// Name implements datagen.Chunked.
func (LogCorpus) Name() string { return "weblog" }

// Plan implements datagen.Chunked.
func (LogCorpus) Plan(scale int) []datagen.Chunk {
	if scale < 1 {
		scale = 1
	}
	return datagen.PlanChunks(int64(scale)*corpusRecordsPerScale, chunkRecords)
}

// GenerateChunk implements datagen.Chunked.
func (lc LogCorpus) GenerateChunk(g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	var gen Generator
	orders := lc.Orders()
	custIdx, prodIdx, err := gen.tableIndexes(orders)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, r := range gen.chunk(g, orders, custIdx, prodIdx, c) {
		sb.WriteString(r.Format())
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), nil
}
