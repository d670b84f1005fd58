// Package opref exercises the oprefed analyzer against the real
// metrics package surface: the collector's string-keyed conveniences
// are legal as one-shot setup but not inside steady-state loops, where
// a handle minted once belongs.
package opref

import (
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
)

func steadyState(c *metrics.Collector, n int) {
	for i := 0; i < n; i++ {
		t := time.Now()
		c.ObserveLatency("op", time.Since(t)) // want `oprefed: string-keyed Collector\.ObserveLatency in a steady-state loop`
		c.Add("ops", 1)                       // want `oprefed: string-keyed Collector\.Add in a steady-state loop`
	}
}

func closureInLoop(c *metrics.Collector, rows []string) {
	for range rows {
		f := func() { c.Add("ops", 1) } // want `oprefed: string-keyed Collector\.Add in a steady-state loop`
		f()
	}
}

func setupOnce(c *metrics.Collector) {
	c.Add("records", 1) // one-shot call outside any loop: setup, stays legal
}

func preResolved(c *metrics.Collector, n int) {
	ref := c.Op("op")
	ops := c.CounterRef("ops")
	for i := 0; i < n; i++ {
		t := ref.StartTimer()
		ref.ObserveSince(t)
		ops.Add(1) // CounterRef.Add is the interned handle, not a string key
	}
}

func allowedInLoop(c *metrics.Collector, n int) {
	for i := 0; i < n; i++ {
		c.Add("ops", 1) //bdvet:allow oprefed -- fixture proves suppression reaches loop bodies
	}
}
