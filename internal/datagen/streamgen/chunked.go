package streamgen

import (
	"strconv"
	"strings"
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
		func(g *stats.RNG, c datagen.Chunk, dst []Event) error {
			gen.fill(g, c, dst)
			return nil
		})
	if err != nil {
		// Event sampling cannot fail by construction.
		panic(err)
	}
	return out
}

// fill draws chunk c's events into dst from g. Every key and value is cut
// from one string grown once to hold them all, so a chunk costs a constant
// number of allocations whatever its event count. Its size is exact while
// KeySpace <= 10^10, where every key name is "key" and ten digits, and an
// upper bound beyond.
func (gen Generator) fill(g *stats.RNG, c datagen.Chunk, dst []Event) {
	var key [24]byte
	var b strings.Builder
	b.Grow(len(dst) * (len(appendKey(key[:0], gen.keySpace()-1)) + valueLen))
	ev := gen.chunkStart(c)
	for i := range dst {
		seq := c.Start + int64(i)
		ev = gen.draw(g, ev)
		off := b.Len()
		k, _ := b.Write(appendKey(key[:0], ev.key))
		b.Write(ev.value)
		arena := b.String()
		dst[i] = Event{Seq: seq, Offset: ev.at, Kind: ev.kind, Key: arena[off : off+k], Value: arena[off+k:]}
	}
}

// chunkStart places a chunk on its nominal time base, Start/rate.
func (gen Generator) chunkStart(c datagen.Chunk) drawn {
	mean := 1 / gen.rate()
	return drawn{at: time.Duration(float64(c.Start) * mean * float64(time.Second))}
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

// AppendChunk implements datagen.Chunked: each event is drawn with its
// value in one reused buffer and written as a tab-separated line.
func (StreamCorpus) AppendChunk(dst []byte, g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	var value [64]byte
	ev := corpusGen.chunkStart(c)
	ev.value = value[:0]
	for i := c.Start; i < c.End; i++ {
		ev = corpusGen.draw(g, ev)
		dst = append(strconv.AppendInt(dst, i, 10), '\t')
		dst = append(strconv.AppendInt(dst, int64(ev.at), 10), '\t')
		dst = append(append(dst, ev.kind.String()...), '\t')
		dst = append(appendKey(dst, ev.key), '\t')
		dst = append(append(dst, ev.value...), '\n')
	}
	return dst, nil
}
