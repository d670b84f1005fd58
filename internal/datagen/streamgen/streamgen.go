// Package streamgen generates event streams. It operationalizes the
// paper's three meanings of data velocity (§2.1): the *generation rate*
// (token-bucket pacing toward a target events/second), the *updating
// frequency* (the insert/update/delete mix of the emitted operations), and
// the *processing speed* (streams carry virtual timestamps so a consumer's
// sustainable rate can be measured against the arrival rate).
package streamgen

import (
	"context"
	"fmt"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
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

// Supported arrival processes: fixed spacing, Poisson (exponential
// interarrivals) and bursty on/off periods.
const (
	ArrivalConstant Arrival = iota
	ArrivalPoisson
	ArrivalBursty
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
	// ValueLen is the payload length in bytes (default 64).
	ValueLen int
	// BurstOnFraction and BurstFactor shape ArrivalBursty: the stream runs
	// at BurstFactor×rate for BurstOnFraction of the time and idles
	// otherwise (defaults 0.2 and 5: same average rate, bursty shape).
	BurstOnFraction float64
	BurstFactor     float64
}

func (gen Generator) keySpace() int64 {
	if gen.KeySpace <= 0 {
		return 100000
	}
	return gen.KeySpace
}

func (gen Generator) valueLen() int {
	if gen.ValueLen <= 0 {
		return 64
	}
	return gen.ValueLen
}

func (gen Generator) rate() float64 {
	if gen.EventsPerSec <= 0 {
		return 1e6
	}
	return gen.EventsPerSec
}

// interarrival draws the next gap for event i.
func (gen Generator) interarrival(g *stats.RNG, i int64) time.Duration {
	mean := 1 / gen.rate()
	switch gen.Arrival {
	case ArrivalPoisson:
		return time.Duration(g.ExpFloat64() * mean * float64(time.Second))
	case ArrivalBursty:
		on := gen.BurstOnFraction
		if on <= 0 || on >= 1 {
			on = 0.2
		}
		factor := gen.BurstFactor
		if factor <= 1 {
			factor = 5
		}
		// Alternate on/off in blocks of 1000 virtual events.
		block := (i / 1000) % 10
		if float64(block) < on*10 {
			return time.Duration(mean / factor * float64(time.Second))
		}
		// Off period: stretched gaps to keep the same average rate.
		off := (1 - on*1/factor) / (1 - on)
		return time.Duration(mean * off * float64(time.Second))
	default:
		return time.Duration(mean * float64(time.Second))
	}
}

// next produces event i (without pacing).
func (gen Generator) next(g *stats.RNG, i int64, at time.Duration) Event {
	kind := OpInsert
	u := g.Float64()
	switch {
	case u < gen.Mix.UpdateFraction:
		kind = OpUpdate
	case u < gen.Mix.UpdateFraction+gen.Mix.DeleteFraction:
		kind = OpDelete
	}
	var key int64
	if gen.KeyChooser != nil {
		key = gen.KeyChooser.Next(g) % gen.keySpace()
	} else {
		key = g.Int64N(gen.keySpace())
	}
	return Event{
		Seq:    i,
		Offset: at,
		Kind:   kind,
		Key:    fmt.Sprintf("key%010d", key),
		Value:  g.RandomWord(gen.valueLen(), gen.valueLen()),
	}
}

// Generate emits n events with virtual timestamps, unpaced — deterministic
// and fast, for tests and event-time workloads.
func (gen Generator) Generate(g *stats.RNG, n int64) []Event {
	out := make([]Event, 0, n)
	var at time.Duration
	for i := int64(0); i < n; i++ {
		at += gen.interarrival(g, i)
		out = append(out, gen.next(g, i, at))
	}
	return out
}

// Run emits n events into out, paced at EventsPerSec by a token bucket
// (unpaced if EventsPerSec <= 0). It stops early if ctx is cancelled and
// always closes out. It returns the achieved rate in events/second.
func (gen Generator) Run(ctx context.Context, g *stats.RNG, n int64, out chan<- Event) (float64, error) {
	defer close(out)
	bucket := datagen.NewTokenBucket(gen.EventsPerSec, gen.rate()/100+1)
	probe := datagen.NewRateProbe()
	var at time.Duration
	for i := int64(0); i < n; i++ {
		bucket.Take(1)
		at += gen.interarrival(g, i)
		ev := gen.next(g, i, at)
		select {
		case out <- ev:
			probe.Add(1)
		case <-ctx.Done():
			return probe.Rate(), ctx.Err()
		}
	}
	return probe.Rate(), nil
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
