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
var WindowedCount = workloads.New("windowed-count", workloads.Realtime, "streaming",
	windowedCount, stacks.TypeStreaming)

func windowedCount(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	_, err := countWindows(ctx, p, c)
	return err
}

// countWindows runs windowed-count and returns what its pipeline emitted.
func countWindows(ctx context.Context, p workloads.Params, c *metrics.Collector) ([]streaming.Msg, error) {
	n := int64(p.Scale) * 20000
	gen := streamgen.Generator{
		EventsPerSec: 50000,
		Arrival:      streamgen.ArrivalPoisson,
		KeySpace:     100,
		KeyChooser:   stats.Zipf{Count: 100, S: 1.2},
	}
	t0gen := c.Now()
	events := gen.GenerateParallel(p.Seed, n, p.DatagenWorkers)
	// Chunked Poisson offsets can regress a few events at chunk
	// boundaries; the window engine assumes in-order arrival, so restore
	// event-time order first (the reorder buffer a real consumer runs).
	// The stable sort is deterministic, preserving seed-determinism.
	slices.SortStableFunc(events, func(a, b streamgen.Event) int { return cmp.Compare(a.Offset, b.Offset) })
	c.RecordDatagen(c.Now().Sub(t0gen), n)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := streaming.New().Instrument(c)
	t0 := c.Now()
	res := eng.Run(events, streaming.TumblingWindow{Size: 100 * time.Millisecond})
	c.Op("pipeline").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(n)
	c.CounterRef("windows_emitted").Add(int64(len(res.Out)))

	total := 0.0
	for _, m := range res.Out {
		total += m.Value
	}
	if int64(total) != n {
		return nil, fmt.Errorf("windowed-count: window totals %v != events %d", total, n)
	}
	// Processing speed must exceed the virtual arrival rate for the
	// pipeline to be sustainable; record the ratio as a counter (x1000).
	span := events[len(events)-1].Offset.Seconds()
	arrivalRate := float64(n) / span
	c.CounterRef("sustainable_x1000").Add(int64(res.Rate / arrivalRate * 1000))
	return res.Out, nil
}

// RollingAggregate maintains sliding-window sums with overlapping windows.
var RollingAggregate = workloads.New("rolling-aggregate", workloads.Realtime, "streaming",
	rollingAggregate, stacks.TypeStreaming)

func rollingAggregate(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	_, err := rollWindows(ctx, p, c)
	return err
}

// rollWindows runs rolling-aggregate and returns what its pipeline emitted.
func rollWindows(ctx context.Context, p workloads.Params, c *metrics.Collector) ([]streaming.Msg, error) {
	n := int64(p.Scale) * 20000
	gen := streamgen.Generator{
		EventsPerSec: 50000,
		KeySpace:     20,
	}
	t0gen := c.Now()
	events := gen.GenerateParallel(p.Seed, n, p.DatagenWorkers)
	c.RecordDatagen(c.Now().Sub(t0gen), n)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := streaming.New().Instrument(c)
	t0 := c.Now()
	res := eng.Run(events,
		streaming.MapStage{Label: "weight", Fn: func(m streaming.Msg) streaming.Msg {
			m.Value = 2
			return m
		}},
		streaming.SlidingWindow{Size: 400 * time.Millisecond, Slide: 100 * time.Millisecond, Agg: streaming.AggSum},
	)
	c.Op("pipeline").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(n)
	c.CounterRef("emissions").Add(int64(len(res.Out)))
	if len(res.Out) == 0 {
		return nil, fmt.Errorf("rolling-aggregate: no emissions")
	}
	// Overlap factor 4: summed emissions approach 4x the weighted input.
	var total float64
	for _, m := range res.Out {
		total += m.Value
	}
	weighted := float64(n) * 2
	if total < weighted || total > 4.2*weighted {
		return nil, fmt.Errorf("rolling-aggregate: total %v outside [1x, 4.2x] of weighted input %v", total, weighted)
	}
	return res.Out, nil
}
