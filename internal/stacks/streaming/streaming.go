// Package streaming is bdbench's stream-processing substrate: a
// channel-based dataflow engine with map/filter stages, tumbling and
// sliding event-time windows and bounded buffers for backpressure. It
// stands in for the real-time analytics stacks of the paper's survey and
// provides the measurement point for velocity-as-processing-speed: the
// engine reports its sustained throughput so it can be compared against a
// stream's arrival rate.
package streaming

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/metrics"
)

// Msg is the engine's dataflow record: keyed, valued, event-timed.
type Msg struct {
	Key   string
	Value float64
	Time  time.Duration // event time (virtual offset)
}

// FromEvent converts a generated stream event into a dataflow message with
// Value 1 (count semantics); workloads that need payload-derived values map
// afterwards.
func FromEvent(ev streamgen.Event) Msg {
	return Msg{Key: ev.Key, Value: 1, Time: ev.Offset}
}

// Stage transforms a message stream. Stages run as goroutines connected by
// bounded channels; a slow stage backpressures its upstream.
type Stage interface {
	// Run consumes in until closed, writes to out, and must close out
	// before returning.
	Run(in <-chan Msg, out chan<- Msg)
	// Name identifies the stage in reports.
	Name() string
}

// MapStage applies fn to every message.
type MapStage struct {
	Label string
	Fn    func(Msg) Msg
}

// Name implements Stage.
func (s MapStage) Name() string { return "map:" + s.Label }

// Run implements Stage.
func (s MapStage) Run(in <-chan Msg, out chan<- Msg) {
	defer close(out)
	for m := range in {
		out <- s.Fn(m)
	}
}

// WindowAgg selects the aggregation a window stage applies per key; the
// zero value counts messages.
type WindowAgg int

// AggSum sums the messages' values instead of counting them.
const AggSum WindowAgg = 1

// TumblingWindow groups messages into fixed event-time windows and emits
// one message per (window, key) with the aggregated value when the window
// closes. Event times must be non-decreasing (bdbench's generators emit
// in order), so a message at or past a window boundary closes it.
type TumblingWindow struct {
	Size time.Duration
	Agg  WindowAgg
}

// Name implements Stage.
func (s TumblingWindow) Name() string { return "tumbling-window" }

// Run implements Stage.
func (s TumblingWindow) Run(in <-chan Msg, out chan<- Msg) {
	defer close(out)
	size := s.Size
	if size <= 0 {
		size = time.Second
	}
	var windowEnd time.Duration = -1
	acc := make(map[string]float64)
	flush := func(end time.Duration) {
		// Deterministic emission order is not guaranteed across keys;
		// downstream sinks aggregate by key, so order is immaterial.
		for k, v := range acc {
			out <- Msg{Key: k, Value: v, Time: end}
		}
		clear(acc)
	}
	for m := range in {
		if windowEnd < 0 {
			windowEnd = (m.Time/size)*size + size
		}
		for m.Time >= windowEnd {
			flush(windowEnd)
			windowEnd += size
		}
		switch s.Agg {
		case AggSum:
			acc[m.Key] += m.Value
		default:
			acc[m.Key]++
		}
	}
	if len(acc) > 0 {
		flush(windowEnd)
	}
}

// SlidingWindow emits, at every slide boundary, aggregates over the last
// Size of event time. Size must be a multiple of Slide; the window is
// maintained as Size/Slide sub-buckets.
type SlidingWindow struct {
	Size  time.Duration
	Slide time.Duration
	Agg   WindowAgg
}

// Name implements Stage.
func (s SlidingWindow) Name() string { return "sliding-window" }

// Run implements Stage.
func (s SlidingWindow) Run(in <-chan Msg, out chan<- Msg) {
	defer close(out)
	size, slide := s.Size, s.Slide
	if slide <= 0 {
		slide = time.Second
	}
	if size < slide {
		size = slide
	}
	nBuckets := int(size / slide)
	buckets := make([]map[string]float64, nBuckets)
	for i := range buckets {
		buckets[i] = make(map[string]float64)
	}
	var slideEnd time.Duration = -1
	cur := 0
	emit := func(end time.Duration) {
		totals := make(map[string]float64)
		for _, b := range buckets {
			for k, v := range b {
				totals[k] += v
			}
		}
		for k, v := range totals {
			out <- Msg{Key: k, Value: v, Time: end}
		}
	}
	advance := func(end time.Duration) {
		emit(end)
		cur = (cur + 1) % nBuckets
		clear(buckets[cur]) // evict the oldest sub-bucket
	}
	for m := range in {
		if slideEnd < 0 {
			slideEnd = (m.Time/slide)*slide + slide
		}
		for m.Time >= slideEnd {
			advance(slideEnd)
			slideEnd += slide
		}
		switch s.Agg {
		case AggSum:
			buckets[cur][m.Key] += m.Value
		default:
			buckets[cur][m.Key]++
		}
	}
	emit(slideEnd)
}

// Engine wires stages into a pipeline and runs it.
type Engine struct {
	buffer int
	rec    *metrics.Collector
}

// New returns an engine whose inter-stage channels buffer 1024 messages
// each: the bound at which a slow stage backs up the ones before it.
func New() *Engine { return &Engine{buffer: 1024} }

// Instrument attaches a collector (nil detaches) and returns the engine.
// Each pipeline stage goroutine records its wall time (source open to sink
// close, which includes backpressure stalls) into a private shard minted
// from rec, keeping measurement off the per-message hot path.
func (e *Engine) Instrument(rec *metrics.Collector) *Engine {
	e.rec = rec
	return e
}

// Result reports a pipeline run.
type Result struct {
	In        int64
	Out       []Msg
	Processed int64
	// Rate is input messages per second on the collector's clock (Now) —
	// the processing speed to compare against the arrival rate.
	Rate float64
}

// Run pushes events through the stages and collects the sink output.
func (e *Engine) Run(events []streamgen.Event, stages ...Stage) Result {
	start := e.rec.Now()
	src := make(chan Msg, e.buffer)
	var processed int64
	go func() {
		defer close(src)
		for _, ev := range events {
			src <- FromEvent(ev)
			atomic.AddInt64(&processed, 1)
		}
	}()
	in := (<-chan Msg)(src)
	var stageWG sync.WaitGroup
	for _, st := range stages {
		out := make(chan Msg, e.buffer)
		stageWG.Add(1)
		go func(st Stage, in <-chan Msg, out chan<- Msg) {
			defer stageWG.Done()
			// Resolve the stage's latency ref once, up front: the label is
			// built per stage (not per message), and the observation below
			// goes through a direct handle.
			stageRef := e.rec.SubstrateShard().Op("stage:" + st.Name())
			stageStart := stageRef.StartTimer()
			st.Run(in, out)
			stageRef.ObserveSince(stageStart)
		}(st, in, out)
		in = out
	}
	var collected []Msg
	for m := range in {
		collected = append(collected, m)
	}
	// Join the stage goroutines: a stage observes its wall time after its
	// deferred close(out), so without this wait the final observation could
	// race with (or be missed by) the caller's snapshot.
	stageWG.Wait()
	wall := e.rec.Now().Sub(start)
	r := Result{
		In:        int64(len(events)),
		Out:       collected,
		Processed: atomic.LoadInt64(&processed),
	}
	if wall > 0 {
		r.Rate = float64(len(events)) / wall.Seconds()
	}
	return r
}
