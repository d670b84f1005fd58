// Package streamgen is the public facade over bdbench's event-stream
// generation: rate-controlled generators with arrival-pattern, key-skew
// and update-mix knobs (§2.1's three meanings of velocity).
package streamgen

import "github.com/bdbench/bdbench/internal/datagen/streamgen"

// Event is one generated stream event.
type Event = streamgen.Event

// OpKind is an event's operation type.
type OpKind = streamgen.OpKind

// The operation kinds.
const (
	OpInsert = streamgen.OpInsert
	OpUpdate = streamgen.OpUpdate
	OpDelete = streamgen.OpDelete
)

// Arrival selects the interarrival pattern.
type Arrival = streamgen.Arrival

// The arrival patterns.
const (
	ArrivalConstant = streamgen.ArrivalConstant
	ArrivalPoisson  = streamgen.ArrivalPoisson
)

// Mix sets the update/delete fractions — the data updating frequency knob.
type Mix = streamgen.Mix

// Generator produces rate-controlled event streams.
type Generator = streamgen.Generator

// MeasureProcessingSpeed feeds events through process as fast as it drains
// them and returns the sustained rate — velocity as processing speed.
func MeasureProcessingSpeed(events []Event, process func(Event)) float64 {
	return streamgen.MeasureProcessingSpeed(events, process)
}
