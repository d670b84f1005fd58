package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCollectorLatencyAndSnapshot(t *testing.T) {
	c := NewCollector("wl")
	for i := 1; i <= 100; i++ {
		c.ObserveLatency("read", time.Duration(i)*time.Millisecond)
	}
	c.SetElapsed(2 * time.Second)
	r := c.Snapshot()
	if r.Name != "wl" {
		t.Fatalf("name %q", r.Name)
	}
	if len(r.Ops) != 1 || r.Ops[0].Op != "read" {
		t.Fatalf("ops %v", r.Ops)
	}
	if r.Ops[0].Count != 100 {
		t.Fatalf("count %d, want 100", r.Ops[0].Count)
	}
	if r.Ops[0].P50 > r.Ops[0].P95 || r.Ops[0].P95 > r.Ops[0].P99 {
		t.Fatal("percentiles not monotone")
	}
	if math.Abs(r.Throughput-50) > 0.001 {
		t.Fatalf("throughput %.3f, want 50", r.Throughput)
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector("wl")
	c.Add("records", 10)
	c.Add("records", 5)
	c.Add("bytes", 100)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if r.Counters["records"] != 15 {
		t.Fatalf("records %d, want 15", r.Counters["records"])
	}
	// No latency observations: throughput falls back to records counter.
	if math.Abs(r.Throughput-15) > 1e-9 {
		t.Fatalf("fallback throughput %.3f, want 15", r.Throughput)
	}
	if r.Counters["bytes"] != 100 {
		t.Fatalf("bytes counter missing: %v", r.Counters)
	}
}

func TestCollectorConcurrentSafety(t *testing.T) {
	c := NewCollector("wl")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.ObserveLatency("op", time.Microsecond)
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if r.Ops[0].Count != 8000 {
		t.Fatalf("concurrent count %d, want 8000", r.Ops[0].Count)
	}
	if r.Counters["n"] != 8000 {
		t.Fatalf("concurrent counter %d, want 8000", r.Counters["n"])
	}
}

func TestCollectorStartStop(t *testing.T) {
	c := NewCollector("wl")
	c.Start()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	if got := c.Snapshot().Elapsed; got < 5*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 5ms", got)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	c := NewCollector("wl")
	c.Start()
	time.Sleep(5 * time.Millisecond)
	c.Stop()
	first := c.Snapshot().Elapsed
	time.Sleep(10 * time.Millisecond)
	c.Stop() // must not silently extend the measured interval
	if got := c.Snapshot().Elapsed; got != first {
		t.Fatalf("second Stop changed elapsed: %v -> %v", first, got)
	}
}

func TestSnapshotWhileRunning(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveLatency("op", time.Millisecond)
	c.Start()
	time.Sleep(5 * time.Millisecond)
	r := c.Snapshot() // mid-run: no Stop yet
	if r.Elapsed < time.Millisecond {
		t.Fatalf("running snapshot elapsed %v, want the interval so far", r.Elapsed)
	}
	if r.Throughput <= 0 {
		t.Fatalf("running snapshot throughput %v, want > 0", r.Throughput)
	}
}

func TestMOPSFromArchitectureCounters(t *testing.T) {
	c := NewCollector("wl")
	// 1000 latency observations (user-perceivable family) but 4M abstract
	// operations (architecture family).
	for i := 0; i < 1000; i++ {
		c.ObserveLatency("op", time.Microsecond)
	}
	c.Add("records", 3_000_000)
	c.Add("bytes", 1_000_000)
	c.Add("iterations", 500) // not an architecture counter
	c.SetElapsed(2 * time.Second)
	r := c.Snapshot()
	if math.Abs(r.Throughput-500) > 1e-9 {
		t.Fatalf("throughput %.3f, want 500 (latency observations)", r.Throughput)
	}
	if math.Abs(r.MOPS-2.0) > 1e-9 {
		t.Fatalf("MOPS %.6f, want 2.0 (4M architecture ops / 2s / 1e6)", r.MOPS)
	}
	// The families must not be rescalings of each other.
	if math.Abs(r.MOPS-r.Throughput/1e6) < 1e-9 {
		t.Fatal("MOPS degenerated back into Throughput/1e6")
	}
}

func TestMOPSZeroWithoutArchitectureCounters(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveLatency("op", time.Microsecond)
	c.Add("iterations", 8)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if r.Throughput <= 0 {
		t.Fatal("throughput should still come from latency observations")
	}
	if r.MOPS != 0 {
		t.Fatalf("MOPS %.9f, want 0 when no architecture counter was recorded", r.MOPS)
	}
}

func TestSnapshotSortsOps(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveLatency("zeta", time.Millisecond)
	c.ObserveLatency("alpha", time.Millisecond)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if r.Ops[0].Op != "alpha" || r.Ops[1].Op != "zeta" {
		t.Fatalf("ops not sorted: %v", r.Ops)
	}
}

func TestEnergyModel(t *testing.T) {
	m := EnergyModel{IdleWatts: 100, ActiveWatts: 300, Nodes: 2}
	// Fully active for 10s: 300W * 2 nodes * 10s = 6000 J.
	j := m.Estimate(10*time.Second, 10*time.Second)
	if math.Abs(j-6000) > 1e-6 {
		t.Fatalf("fully active energy %.1f, want 6000", j)
	}
	// Idle for 10s: 100W * 2 * 10 = 2000 J.
	j = m.Estimate(10*time.Second, 0)
	if math.Abs(j-2000) > 1e-6 {
		t.Fatalf("idle energy %.1f, want 2000", j)
	}
	// Utilization clamps at 1 even if active > wall (multi-core).
	j = m.Estimate(10*time.Second, 40*time.Second)
	if math.Abs(j-6000) > 1e-6 {
		t.Fatalf("clamped energy %.1f, want 6000", j)
	}
	if m.Estimate(0, 0) != 0 {
		t.Fatal("zero wall should give zero energy")
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{NodeHourUSD: 1.20, Nodes: 10}
	c := m.Estimate(30 * time.Minute)
	if math.Abs(c-6.0) > 1e-9 {
		t.Fatalf("cost %.4f, want 6.00", c)
	}
	if m.Estimate(0) != 0 {
		t.Fatal("zero wall should give zero cost")
	}
}

func TestApply(t *testing.T) {
	c := NewCollector("wl")
	c.SetElapsed(time.Hour)
	r := c.Snapshot()
	Apply(&r, EnergyModel{IdleWatts: 100, ActiveWatts: 100, Nodes: 1}, CostModel{NodeHourUSD: 2, Nodes: 3}, 0)
	if math.Abs(r.EnergyJoules-360000) > 1e-6 {
		t.Fatalf("energy %.1f, want 360000", r.EnergyJoules)
	}
	if math.Abs(r.CostUSD-6) > 1e-9 {
		t.Fatalf("cost %.2f, want 6", r.CostUSD)
	}
}
