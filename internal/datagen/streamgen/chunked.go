package streamgen

import (
	"fmt"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chunkEvents is the event count per generation chunk.
const chunkEvents = 4096

// GenerateParallel emits n events across a bounded worker pool. Each chunk
// accumulates its interarrivals from its own (seed, chunk index)-derived
// RNG on top of a nominal base offset of chunkStart/rate, so the stream is
// identical at any worker count. Offsets are monotone within a chunk and
// nominally aligned across chunks; for stochastic arrival processes the
// chunk boundaries can overlap by a few interarrival times, which
// event-time consumers absorb exactly like network reordering.
func (gen Generator) GenerateParallel(seed uint64, n int64, workers int) []Event {
	out, err := datagen.Generate(seed, datagen.PlanChunks(n, chunkEvents), workers,
		func(g *stats.RNG, c datagen.Chunk) ([]Event, error) {
			return gen.chunk(g, c), nil
		})
	if err != nil {
		// Event sampling cannot fail by construction.
		panic(err)
	}
	return out
}

// chunk emits one chunk's events from its nominal time base — the single
// definition of chunked stream output, shared by GenerateParallel and the
// StreamCorpus adapter so the two can never drift apart.
func (gen Generator) chunk(g *stats.RNG, c datagen.Chunk) []Event {
	mean := 1 / gen.rate()
	at := time.Duration(float64(c.Start) * mean * float64(time.Second))
	part := make([]Event, 0, c.Len())
	for i := c.Start; i < c.End; i++ {
		at += gen.interarrival(g, i)
		part = append(part, gen.next(g, i, at))
	}
	return part
}

// corpusEventsPerScale is the "stream" corpus's event count per scale unit.
const corpusEventsPerScale = 10000

// corpusGen shapes the "stream" corpus: constant arrivals, a 75/20/5
// insert/update/delete mix.
var corpusGen = Generator{Mix: Mix{UpdateFraction: 0.2, DeleteFraction: 0.05}}

// StreamCorpus adapts the event-stream generator to the datagen.Chunked
// corpus contract: events rendered as one
// "seq<TAB>offset-ns<TAB>kind<TAB>key<TAB>value" line each.
type StreamCorpus struct{}

// Name implements datagen.Chunked.
func (StreamCorpus) Name() string { return "stream" }

// Plan implements datagen.Chunked.
func (StreamCorpus) Plan(scale int) []datagen.Chunk {
	if scale < 1 {
		scale = 1
	}
	return datagen.PlanChunks(int64(scale)*corpusEventsPerScale, chunkEvents)
}

// GenerateChunk implements datagen.Chunked.
func (StreamCorpus) GenerateChunk(g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	var out []byte
	for _, ev := range corpusGen.chunk(g, c) {
		out = fmt.Appendf(out, "%d\t%d\t%s\t%s\t%s\n", ev.Seq, int64(ev.Offset), ev.Kind, ev.Key, ev.Value)
	}
	return out, nil
}
