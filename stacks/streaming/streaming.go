// Package streaming is the public facade over bdbench's simulated stream
// stack: a windowed dataflow engine over event streams.
package streaming

import "github.com/bdbench/bdbench/internal/stacks/streaming"

// Msg is one keyed message flowing through a stage.
type Msg = streaming.Msg

// Stage transforms a message stream.
type Stage = streaming.Stage

// MapStage applies a function per message.
type MapStage = streaming.MapStage

// WindowAgg selects the windowed aggregate function.
type WindowAgg = streaming.WindowAgg

// TumblingWindow aggregates per key over fixed windows.
type TumblingWindow = streaming.TumblingWindow

// SlidingWindow aggregates per key over overlapping windows.
type SlidingWindow = streaming.SlidingWindow

// Result reports the output stream and the sustained processing rate.
type Result = streaming.Result

// Engine executes stage pipelines over event streams.
type Engine = streaming.Engine

// New returns an engine whose inter-stage channels buffer 1024 messages.
func New() *Engine { return streaming.New() }
