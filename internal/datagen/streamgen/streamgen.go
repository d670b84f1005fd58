// Package streamgen generates event streams. It operationalizes the
// paper's three meanings of data velocity (§2.1): the *generation rate*
// (Run sleeps each event to its intended time at a target events/second),
// the *updating frequency* (the insert/update/delete mix of the emitted
// operations), and the *processing speed* (streams carry virtual timestamps
// so a consumer's sustainable rate can be measured against the arrival
// rate).
package streamgen

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
)

// OpKind is the kind of stream operation.
type OpKind uint8

// The operation kinds of an update stream.
const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
)

// String returns the lowercase kind name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Event is one element of a stream. Offset is the event's virtual arrival
// time relative to stream start, assigned by the arrival process; consumers
// use it to compute event-time windows deterministically.
type Event struct {
	Seq    int64
	Offset time.Duration
	Kind   OpKind
	Key    string
	Value  string
}

// Arrival selects the interarrival process.
type Arrival int

// Supported arrival processes: fixed spacing and Poisson (exponential
// interarrivals).
const (
	ArrivalConstant Arrival = iota
	ArrivalPoisson
)

// Mix controls the update-frequency aspect of velocity: fractions of
// updates and deletes (remainder inserts).
type Mix struct {
	UpdateFraction float64
	DeleteFraction float64
}

// Generator produces update streams.
type Generator struct {
	// EventsPerSec is the virtual arrival rate encoded in Offsets, and the
	// pacing target of Run. <= 0 means maximum speed (Offsets advance at
	// 1M events/sec nominal).
	EventsPerSec float64
	// Arrival selects the interarrival process (default constant).
	Arrival Arrival
	// Mix sets the operation mix (default all inserts).
	Mix Mix
	// KeySpace is the number of distinct keys (default 100000).
	KeySpace int64
	// KeyChooser skews key popularity (default uniform).
	KeyChooser stats.IntSampler
}

// valueLen is an event's payload length in bytes.
const valueLen = 64

func (gen Generator) keySpace() int64 {
	if gen.KeySpace <= 0 {
		return 100000
	}
	return gen.KeySpace
}

func (gen Generator) rate() float64 {
	if gen.EventsPerSec <= 0 {
		return 1e6
	}
	return gen.EventsPerSec
}

// interarrival draws the next gap.
func (gen Generator) interarrival(g *stats.RNG) time.Duration {
	mean := 1 / gen.rate()
	if gen.Arrival == ArrivalPoisson {
		return time.Duration(g.ExpFloat64() * mean * float64(time.Second))
	}
	return time.Duration(mean * float64(time.Second))
}

// drawn is an event as drawn: its key still a number and its value's letters
// in a buffer the drawing loop reuses.
type drawn struct {
	at    time.Duration
	kind  OpKind
	key   int64
	value []byte
}

// draw advances ev to the next event: the gap since the previous event, then
// its kind, its key and its value. It is the one sequence of draws behind
// Generate, Run, GenerateParallel and the "stream" corpus.
func (gen Generator) draw(g *stats.RNG, ev drawn) drawn {
	ev.at += gen.interarrival(g)
	ev.kind = OpInsert
	u := g.Float64()
	switch {
	case u < gen.Mix.UpdateFraction:
		ev.kind = OpUpdate
	case u < gen.Mix.UpdateFraction+gen.Mix.DeleteFraction:
		ev.kind = OpDelete
	}
	if gen.KeyChooser != nil {
		ev.key = gen.KeyChooser.Next(g) % gen.keySpace()
	} else {
		ev.key = g.Int64N(gen.keySpace())
	}
	ev.value = g.AppendWord(ev.value[:0], valueLen, valueLen)
	return ev
}

// event returns the drawn event as event i of a stream.
func (ev drawn) event(i int64) Event {
	var key [24]byte
	return Event{Seq: i, Offset: ev.at, Kind: ev.kind, Key: string(appendKey(key[:0], ev.key)), Value: string(ev.value)}
}

// appendKey appends the name of key (never negative): "key" and its number
// zero-padded to ten digits, as fmt's %010d pads it.
func appendKey(dst []byte, key int64) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], key, 10)
	dst = append(dst, "key"...)
	for range 10 - len(d) {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// Generate emits n events with virtual timestamps, unpaced — deterministic
// and fast, for tests and event-time workloads. The events are one chunk:
// their keys and values share one string.
func (gen Generator) Generate(g *stats.RNG, n int64) []Event {
	out := make([]Event, n)
	gen.fill(g, datagen.Chunk{End: n}, out)
	return out
}

// Run emits n events into out, event i at its intended time
// start + i/EventsPerSec on the wall clock (unpaced if EventsPerSec <= 0).
// It returns as soon as ctx is cancelled and always closes out. It returns
// the achieved rate in events/second: the events sent over the time since
// start, on the same clock it paces on.
func (gen Generator) Run(ctx context.Context, g *stats.RNG, n int64, out chan<- Event) (float64, error) {
	defer close(out)
	var wall *metrics.Collector // a nil collector reads and sleeps on the wall clock
	var timer *time.Timer
	var err error
	var d drawn
	start, sent := wall.Now(), int64(0)
	for sent < n && err == nil {
		if gen.EventsPerSec > 0 {
			due := start.Add(time.Duration(float64(sent) / gen.EventsPerSec * float64(time.Second)))
			if timer, err = wall.SleepUntil(ctx, due, timer); err != nil {
				break
			}
		}
		d = gen.draw(g, d)
		select {
		case out <- d.event(sent):
			sent++
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if secs := wall.Now().Sub(start).Seconds(); secs > 0 {
		return float64(sent) / secs, err
	}
	return 0, err
}

// MeasureProcessingSpeed drains events through process and returns the
// sustained processing rate (events/second of wall time) — the paper's
// third velocity meaning. It processes all events as fast as possible.
func MeasureProcessingSpeed(events []Event, process func(Event)) float64 {
	if len(events) == 0 {
		return 0
	}
	start := time.Now() //bdvet:allow detnondet -- processing-speed measurement is wall time by definition
	for _, ev := range events {
		process(ev)
	}
	secs := time.Since(start).Seconds() //bdvet:allow detnondet -- processing-speed measurement is wall time by definition
	if secs <= 0 {
		return float64(len(events)) / 1e-9
	}
	return float64(len(events)) / secs
}
