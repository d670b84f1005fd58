// Package timed exercises the detnondet analyzer on a workload. Its import
// path sits under internal/workloads, so a duration must come from the run's
// clock, the collector's Now or a handle's StartTimer/ObserveSince; a wall
// clock read is flagged.
package timed

import (
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
)

func wallClock(c *metrics.Collector) {
	t0 := time.Now()                    // want `detnondet: wall clock \(time\.Now\)`
	c.Op("job").Observe(time.Since(t0)) // want `detnondet: wall clock \(time\.Since\)`
}

func runClock(c *metrics.Collector, op metrics.OpRef) {
	t0 := c.Now()
	c.Op("job").Observe(c.Now().Sub(t0))
	op.ObserveSince(op.StartTimer())
}
