package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestRecordDatagenSurfacesDataPrep(t *testing.T) {
	c := NewCollector("wl")
	c.Op("op").Observe(5 * time.Millisecond)
	c.RecordDatagen(40*time.Millisecond, 1000)
	c.RecordDatagen(10*time.Millisecond, 0)
	c.SetElapsed(60 * time.Millisecond)
	r := c.Snapshot()
	if r.DataPrep != 50*time.Millisecond {
		t.Fatalf("DataPrep = %v, want 50ms", r.DataPrep)
	}
	if got := r.Counters[DatagenItems]; got != 1000 {
		t.Fatalf("%s = %d, want 1000", DatagenItems, got)
	}
	var dg *OpStats
	for i := range r.Ops {
		if r.Ops[i].Op == DatagenOp {
			dg = &r.Ops[i]
		}
	}
	if dg == nil {
		t.Fatalf("no %s op in profile: %+v", DatagenOp, r.Ops)
	}
	if !dg.Substrate {
		t.Fatal("datagen op must be substrate-level")
	}
	if dg.Count != 2 {
		t.Fatalf("datagen count = %d, want 2", dg.Count)
	}
}

func TestRecordDatagenExcludedFromThroughput(t *testing.T) {
	c := NewCollector("wl")
	for i := 0; i < 10; i++ {
		c.Op("op").Observe(time.Millisecond)
	}
	c.RecordDatagen(100*time.Millisecond, 50)
	c.SetElapsed(2 * time.Millisecond)
	r := c.Snapshot()
	// Throughput counts the 10 user observations over elapsed — the
	// datagen observation and the datagen_items counter must not inflate
	// it: 10 ops over 2ms is 5000/s; a leak of the datagen observation
	// would show as 11 ops.
	if want := float64(10) / r.Elapsed.Seconds(); r.Throughput != want {
		t.Fatalf("Throughput = %v, want %v (datagen leaked in)", r.Throughput, want)
	}
}

func TestRecordDatagenConcurrent(t *testing.T) {
	c := NewCollector("wl")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.RecordDatagen(time.Microsecond, 1)
			}
		}()
	}
	wg.Wait()
	r := c.Snapshot()
	if got := r.Counters[DatagenItems]; got != 800 {
		t.Fatalf("%s = %d, want 800", DatagenItems, got)
	}
	if r.DataPrep != 800*time.Microsecond {
		t.Fatalf("DataPrep = %v, want 800µs", r.DataPrep)
	}
}

func TestZeroDataPrepWithoutRecordDatagen(t *testing.T) {
	c := NewCollector("wl")
	c.Op("op").Observe(time.Millisecond)
	c.SetElapsed(time.Millisecond)
	if r := c.Snapshot(); r.DataPrep != 0 {
		t.Fatalf("DataPrep = %v, want 0", r.DataPrep)
	}
}
