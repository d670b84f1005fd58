package metrics

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// TestShardedWritersMatchSequentialBaseline: N goroutines recording into
// private shards produce a merged snapshot identical (counts, counters,
// means) to one goroutine recording the same observations sequentially.
func TestShardedWritersMatchSequentialBaseline(t *testing.T) {
	const workers, perWorker = 8, 5000
	sharded := NewCollector("sharded")
	baseline := NewCollector("baseline")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sharded.Shard()
			op, opW := s.Op("op"), s.Op(fmt.Sprintf("op-%d", w%2))
			records, bytes := s.CounterRef("records"), s.CounterRef("bytes")
			for i := 0; i < perWorker; i++ {
				op.Observe(time.Duration(i%100) * time.Microsecond)
				opW.Observe(time.Microsecond)
				records.Add(1)
				bytes.Add(64)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			baseline.Op("op").Observe(time.Duration(i%100) * time.Microsecond)
			baseline.Op(fmt.Sprintf("op-%d", w%2)).Observe(time.Microsecond)
			baseline.CounterRef("records").Add(1)
			baseline.CounterRef("bytes").Add(64)
		}
	}
	sharded.SetElapsed(time.Second)
	baseline.SetElapsed(time.Second)
	sr, br := sharded.Snapshot(), baseline.Snapshot()

	if len(sr.Ops) != len(br.Ops) {
		t.Fatalf("op sets differ: %d vs %d", len(sr.Ops), len(br.Ops))
	}
	for i := range sr.Ops {
		s, b := sr.Ops[i], br.Ops[i]
		if s.Op != b.Op || s.Count != b.Count || s.Mean != b.Mean || s.Max != b.Max ||
			s.P50 != b.P50 || s.P95 != b.P95 || s.P99 != b.P99 {
			t.Fatalf("op %q differs: sharded %+v baseline %+v", s.Op, s, b)
		}
	}
	for k, v := range br.Counters {
		if sr.Counters[k] != v {
			t.Fatalf("counter %s: %d, want %d", k, sr.Counters[k], v)
		}
	}
	if sr.Throughput != br.Throughput || sr.MOPS != br.MOPS {
		t.Fatalf("rates differ: %v/%v vs %v/%v", sr.Throughput, sr.MOPS, br.Throughput, br.MOPS)
	}
}

// TestSnapshotRacesWithObserves drives Snapshot concurrently with in-flight
// shard and facade writes; -race must stay clean and every cut must be
// internally consistent.
func TestSnapshotRacesWithObserves(t *testing.T) {
	c := NewCollector("racing")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			read, records := c.Op("read"), c.CounterRef("records")
			if w%2 == 0 {
				s := c.Shard()
				read, records = s.Op("read"), s.CounterRef("records")
			}
			// At least one observation per writer, even if the snapshot
			// loop finishes before this goroutine is first scheduled.
			read.Observe(time.Microsecond)
			records.Add(1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					read.Observe(time.Duration(i%1000) * time.Microsecond)
					records.Add(1)
				}
			}
		}(w)
	}
	var last uint64
	for i := 0; i < 100; i++ {
		r := c.Snapshot()
		var count uint64
		for _, op := range r.Ops {
			count += op.Count
		}
		if count < last {
			t.Fatalf("observation count went backwards: %d -> %d", last, count)
		}
		last = count
	}
	close(stop)
	wg.Wait()
	final := c.Snapshot()
	if uint64(final.Counters["records"]) != final.Ops[0].Count {
		t.Fatalf("final counters %d != observations %d", final.Counters["records"], final.Ops[0].Count)
	}
}

// TestSubstrateShardsExcludedFromThroughput: substrate-level echoes (stack
// instrumentation underneath a workload's own measurements) show up in Ops
// but must not inflate the user-perceivable Throughput.
func TestSubstrateShardsExcludedFromThroughput(t *testing.T) {
	c := NewCollector("wl")
	for i := 0; i < 100; i++ {
		c.Op("read").Observe(time.Microsecond) // workload level
	}
	sub := c.SubstrateShard()
	kvRead, read := sub.Op("kv_read"), sub.Op("read")
	for i := 0; i < 100; i++ {
		kvRead.Observe(time.Microsecond) // store-level echo
		read.Observe(time.Microsecond)   // same label, substrate side
	}
	sub.CounterRef("bytes").Add(4096)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if math.Abs(r.Throughput-100) > 1e-9 {
		t.Fatalf("throughput %.3f, want 100 (substrate echoes must not count)", r.Throughput)
	}
	counts := map[string]uint64{}
	for _, op := range r.Ops {
		counts[op.Op] = op.Count
	}
	// Ops still report everything, merged across levels.
	if counts["kv_read"] != 100 || counts["read"] != 200 {
		t.Fatalf("ops %v, want kv_read=100 read=200", counts)
	}
	// Substrate counters still merge normally (architecture family).
	if r.Counters["bytes"] != 4096 {
		t.Fatalf("substrate counter lost: %v", r.Counters)
	}
}

// TestShardCounterAndTimed covers a shard's counter handle and the latency
// handle's StartTimer/ObserveSince pair.
func TestShardCounterAndTimed(t *testing.T) {
	c := NewCollector("wl")
	s := c.Shard()
	n := s.CounterRef("n")
	n.Add(2)
	n.Add(3)
	if got := c.Snapshot().Counters["n"]; got != 5 {
		t.Fatalf("shard counter %d, want 5", got)
	}
	f := s.Op("f")
	t0 := f.StartTimer()
	time.Sleep(2 * time.Millisecond)
	f.ObserveSince(t0)
	c.SetElapsed(time.Second)
	r := c.Snapshot()
	if r.Ops[0].Op != "f" || r.Ops[0].Count != 1 || r.Ops[0].Mean < time.Millisecond {
		t.Fatalf("timed observation not recorded: %+v", r.Ops)
	}
}

// TestSnapshotFoldMatchesSnapshotAndMerge: over random collectors — user and
// substrate shards sharing labels, cells spanning one histogram page or
// dozens, labels minted and never observed — the Ops of Snapshot, which folds
// each cell's installed pages straight into its label's histogram, are what
// snapshotting every cell densely and merging the copies gave.
func TestSnapshotFoldMatchesSnapshotAndMerge(t *testing.T) {
	g := stats.NewRNG(47)
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		c := NewCollector("fold")
		for s, shards := 0, 1+g.IntN(6); s < shards; s++ {
			shard := c.Shard()
			if g.IntN(3) == 0 {
				shard = c.SubstrateShard()
			}
			for _, label := range labels {
				ref := shard.Op(label)
				for i, n := 0, g.IntN(4)*g.IntN(40); i < n; i++ {
					ref.Observe(time.Duration(g.IntN(1 << (1 + g.IntN(40)))))
				}
			}
		}
		c.SetElapsed(time.Second)
		got, want := c.Snapshot().Ops, snapshotAndMergeOps(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d:\n fold %+v\nmerge %+v", trial, got, want)
		}
	}
}

// snapshotAndMergeOps is the Ops Snapshot built before it folded cells in
// place: a dense Snapshot of every observed cell, merged per label and level,
// then the substrate echo merged into the label's row.
func snapshotAndMergeOps(c *Collector) []OpStats {
	user := map[string]*stats.LatencyHistogram{}
	sub := map[string]*stats.LatencyHistogram{}
	for _, s := range c.shards {
		dst := user
		if s.substrate {
			dst = sub
		}
		m := s.lat.Load()
		if m == nil {
			continue
		}
		for op, cell := range *m {
			st := cell.state.Load()
			if st == nil {
				continue
			}
			snap := st.hist.Snapshot()
			if snap.Count() == 0 {
				continue
			}
			if h, ok := dst[op]; ok {
				h.Merge(snap)
			} else {
				dst[op] = snap
			}
		}
	}
	var ops []OpStats
	for _, op := range []string{"a", "b", "c", "d"} {
		h, substrate := user[op], user[op] == nil
		if substrate {
			h = &stats.LatencyHistogram{}
		}
		if sub[op] != nil {
			h.Merge(sub[op])
		} else if substrate {
			continue
		}
		ops = append(ops, OpStats{Op: op, Count: h.Count(), Mean: h.Mean(), P50: h.Quantile(0.50),
			P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max(), Substrate: substrate})
	}
	return ops
}
