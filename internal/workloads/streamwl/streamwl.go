// Package streamwl implements the real-time streaming analytics workloads:
// windowed counting and rolling aggregation over generated update streams,
// with the arrival-rate versus processing-rate measurement that
// operationalizes velocity-as-processing-speed (§2.1).
package streamwl

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/streaming"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// WindowedCount counts events per key in tumbling event-time windows.
type WindowedCount struct{}

// Name implements workloads.Workload.
func (WindowedCount) Name() string { return "windowed-count" }

// Category implements workloads.Workload.
func (WindowedCount) Category() workloads.Category { return workloads.Realtime }

// Domain implements workloads.Workload.
func (WindowedCount) Domain() string { return "streaming" }

// StackTypes implements workloads.Workload.
func (WindowedCount) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeStreaming} }

// Run implements workloads.Workload.
func (WindowedCount) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	n := int64(p.Scale) * 20000
	if err := ctx.Err(); err != nil {
		return err
	}
	gen := streamgen.Generator{
		EventsPerSec: 50000,
		Arrival:      streamgen.ArrivalPoisson,
		KeySpace:     100,
		KeyChooser:   stats.Zipf{Count: 100, S: 1.2},
	}
	t0gen := time.Now()
	events := gen.GenerateParallel(p.Seed, n, p.DatagenWorkers)
	// Chunked Poisson offsets can regress a few events at chunk
	// boundaries; the window engine assumes in-order arrival, so restore
	// event-time order first (the reorder buffer a real consumer runs).
	// The stable sort is deterministic, preserving seed-determinism.
	slices.SortStableFunc(events, func(a, b streamgen.Event) int { return cmp.Compare(a.Offset, b.Offset) })
	c.RecordDatagen(time.Since(t0gen), n)
	eng := streaming.New(1024).Instrument(c)
	t0 := time.Now()
	res := eng.Run(events, streaming.TumblingWindow{Size: 100 * time.Millisecond})
	c.ObserveLatency("pipeline", time.Since(t0))
	c.Add("records", n)
	c.Add("windows_emitted", int64(len(res.Out)))

	total := 0.0
	for _, m := range res.Out {
		total += m.Value
	}
	if int64(total) != n {
		return fmt.Errorf("windowed-count: window totals %v != events %d", total, n)
	}
	// Processing speed must exceed the virtual arrival rate for the
	// pipeline to be sustainable; record the ratio as a counter (x1000).
	span := events[len(events)-1].Offset.Seconds()
	arrivalRate := float64(n) / span
	c.Add("sustainable_x1000", int64(res.Rate/arrivalRate*1000))
	return nil
}

// RollingAggregate maintains sliding-window sums with overlapping windows.
type RollingAggregate struct{}

// Name implements workloads.Workload.
func (RollingAggregate) Name() string { return "rolling-aggregate" }

// Category implements workloads.Workload.
func (RollingAggregate) Category() workloads.Category { return workloads.Realtime }

// Domain implements workloads.Workload.
func (RollingAggregate) Domain() string { return "streaming" }

// StackTypes implements workloads.Workload.
func (RollingAggregate) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeStreaming} }

// Run implements workloads.Workload.
func (RollingAggregate) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	n := int64(p.Scale) * 20000
	if err := ctx.Err(); err != nil {
		return err
	}
	gen := streamgen.Generator{
		EventsPerSec: 50000,
		KeySpace:     20,
	}
	t0gen := time.Now()
	events := gen.GenerateParallel(p.Seed, n, p.DatagenWorkers)
	c.RecordDatagen(time.Since(t0gen), n)
	eng := streaming.New(1024).Instrument(c)
	t0 := time.Now()
	res := eng.Run(events,
		streaming.MapStage{Label: "weight", Fn: func(m streaming.Msg) streaming.Msg {
			m.Value = 2
			return m
		}},
		streaming.SlidingWindow{Size: 400 * time.Millisecond, Slide: 100 * time.Millisecond, Agg: streaming.AggSum},
	)
	c.ObserveLatency("pipeline", time.Since(t0))
	c.Add("records", n)
	c.Add("emissions", int64(len(res.Out)))
	if len(res.Out) == 0 {
		return fmt.Errorf("rolling-aggregate: no emissions")
	}
	// Overlap factor 4: summed emissions approach 4x the weighted input.
	var total float64
	for _, m := range res.Out {
		total += m.Value
	}
	weighted := float64(n) * 2
	if total < weighted || total > 4.2*weighted {
		return fmt.Errorf("rolling-aggregate: total %v outside [1x, 4.2x] of weighted input %v", total, weighted)
	}
	return nil
}
