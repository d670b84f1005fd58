package weblog

import (
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chunkRecords is the record count per generation chunk.
const chunkRecords = 2048

// nominalGap is the expected inter-record spacing (the mean of the 0–5s
// uniform gap); chunk time bases are placed at c.Start*nominalGap so the log
// timeline advances consistently at any worker count.
const nominalGap = 2500 * time.Millisecond

// FromTableParallel generates n log records from the orders table across a
// bounded worker pool. Each chunk starts a fresh session at a nominal time
// base derived from its record range, with its RNG derived from (seed,
// chunk index) — so the log is identical at any worker count.
func FromTableParallel(seed uint64, orders *data.Table, n, workers int) ([]Record, error) {
	src, err := newSource(orders)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(seed, datagen.PlanChunks(int64(n), chunkRecords), workers,
		func(g *stats.RNG, c datagen.Chunk, dst []Record) error {
			fill(g, src, chunkStart(c), dst)
			return nil
		})
}

// chunkStart is a chunk's nominal time base, c.Start*nominalGap after the
// log's start.
func chunkStart(c datagen.Chunk) time.Time {
	return start.Add(time.Duration(c.Start) * nominalGap)
}

// corpusRecordsPerScale is the "weblog" corpus's record count per scale unit.
const corpusRecordsPerScale = 5000

// LogCorpus adapts the web-log generator to the
// datagen.Chunked corpus contract: Apache combined-log lines derived from an
// orders table. Build it with NewLogCorpus.
type LogCorpus struct {
	source func() (source, error)
}

// NewLogCorpus returns the weblog corpus over the table orders returns,
// called once, on the first chunk, so registries can defer building it.
func NewLogCorpus(orders func() *data.Table) LogCorpus {
	return LogCorpus{source: sync.OnceValues(func() (source, error) { return newSource(orders()) })}
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

// AppendChunk implements datagen.Chunked: one combined-log line per record.
func (lc LogCorpus) AppendChunk(dst []byte, g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	src, err := lc.source()
	if err != nil {
		return dst, err
	}
	sessions(g, src, int(c.Len()), chunkStart(c), func(r Record) { dst = append(r.AppendFormat(dst), '\n') })
	return dst, nil
}
