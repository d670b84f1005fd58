// Package metrics implements the measurement side of the benchmark
// methodology in "On Big Data Benchmarking" §3.1: user-perceivable metrics
// (test duration, request latency, throughput) that compare workloads of the
// same category, architecture metrics (operation rates in the spirit of
// MIPS/MFLOPS) that compare workloads across categories, and the energy and
// cost models the paper says metrics must also cover.
//
// Collection is sharded so measurement never becomes the bottleneck it is
// meant to observe: a Collector is a set of Shards merged only at Snapshot
// time, every worker goroutine of a parallel stack can mint a private shard
// (Collector.Shard, SubstrateShard), and recording into a shard is lock-free
// — atomic counter cells and atomic latency histograms
// (stats.AtomicLatencyHistogram) whose pages exist once a value reaches
// them, with a mutex taken only when a new label's handle is minted or a
// histogram's page is first used.
//
// There is one write path: Collector → Shard → OpRef/CounterRef. Every
// observation goes through a handle. A phase-level measurement mints one on
// the collector's default shard (Collector.Op, Collector.CounterRef) where
// it records; a hot path mints its handles once, up front.
package metrics

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// ArchitectureCounters names the abstract-operation counters that feed the
// architecture metric family (§3.1): counts of work done in units comparable
// across workload categories, bdbench's stand-in for the instructions and
// floating-point operations behind MIPS/MFLOPS. Counters outside this list
// ("iterations", "accuracy_pct", ...) are reported but never aggregated into
// MOPS, keeping the two metric families separate.
var ArchitectureCounters = []string{"records", "bytes", "shuffle_bytes", "messages", "operations"}

// DatagenOp is the operation label under which data-preparation wall time
// is recorded. It lives in a substrate-style shard, so it never inflates
// Throughput; Snapshot surfaces its total as Result.DataPrep and the
// prepared item count under the DatagenItems counter.
const DatagenOp = "datagen"

// DatagenItems is the counter naming how many input items (records,
// documents, edges, events) data preparation produced. It is deliberately
// not an ArchitectureCounter: preparing data is not doing the workload's
// work.
const DatagenItems = "datagen_items"

// Collector accumulates measurements for one workload execution. It is safe
// for concurrent use by the goroutines of a parallel stack.
//
// Internally it is a set of shards merged only at Snapshot time: Op and
// CounterRef mint handles on a default shard whose hot path is lock-free,
// and worker goroutines can mint private shards with Shard so their
// operation loops never contend with each other at all.
// The collector's own mutex guards only the measured interval and the shard
// list. A collector also carries the run's one clock (SetClock, Now):
// everything that times something inside a run reads it, and every pacer
// sleeps on it (SleepUntil).
type Collector struct {
	name string
	now  func() time.Time // nil is the wall clock

	mu      sync.Mutex // guards the fields below, never the recording path
	elapsed time.Duration
	shards  []*Shard
	def     *Shard
	dgen    *Shard // substrate shard RecordDatagen records into
	// sampling, when set (EnableSampling), is handed to every shard so raw
	// latency streams are captured alongside the histograms.
	sampling *samplingState
}

// NewCollector returns a collector for the named workload.
func NewCollector(name string) *Collector {
	c := &Collector{name: name}
	c.def = c.Shard()
	c.dgen = c.SubstrateShard()
	return c
}

// SetClock makes now the clock every handle, sample offset and Now reads;
// nil is the wall clock. Call it right after NewCollector, before the
// collector is shared or sampling is enabled, as the engine does.
func (c *Collector) SetClock(now func() time.Time) { c.now = now }

// Now reads the collector's clock. A nil collector — an uninstrumented
// stack — reads the wall clock.
func (c *Collector) Now() time.Time {
	if c == nil || c.now == nil {
		return time.Now()
	}
	return c.now()
}

// since is the time elapsed on the collector's clock since start. On the
// wall clock that is time.Since, one monotonic read, so a timed interval
// never holds a wall-time read of its own.
//
//bdbench:hotpath
func (c *Collector) since(start time.Time) time.Duration {
	if c == nil || c.now == nil {
		return time.Since(start)
	}
	return c.now().Sub(start)
}

// SleepUntil pauses until t on the collector's clock, or until ctx is
// cancelled, and returns ctx.Err(). It is the module's one pacing sleep:
// the open-loop dispatcher, paced pattern phases and generated streams all
// sleep through it, so a cancel never waits out a pacing gap. On the wall
// clock (a nil collector's too) it waits on timer, which the caller reuses
// across calls — nil on the first, the returned timer thereafter — so a
// pacer makes one timer, not one per sleep. Under an injected clock it
// returns at once, because no wall sleep can advance that clock. Requires
// the go1.23+ timer semantics go.mod declares: Reset without draining is
// safe.
func (c *Collector) SleepUntil(ctx context.Context, t time.Time, timer *time.Timer) (*time.Timer, error) {
	if c != nil && c.now != nil {
		return timer, ctx.Err()
	}
	d := time.Until(t)
	if d <= 0 {
		return timer, ctx.Err()
	}
	if timer == nil {
		timer = time.NewTimer(d)
	} else {
		timer.Reset(d)
	}
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
	}
	return timer, ctx.Err()
}

// Shard mints a private recording shard merged into this collector's
// snapshots. Each worker goroutine of a parallel stack should hold its own
// shard so hot operation loops record without any shared-lock contention.
func (c *Collector) Shard() *Shard { return c.newShard(false) }

// SubstrateShard mints a shard for stack-internal measurement: merged into
// snapshots like any other, but its latency observations (per-task,
// per-superstep, per-store-op echoes underneath a workload's own
// measurements) do not count toward Throughput, which must count each
// logical workload operation exactly once. A nil collector — an
// uninstrumented stack — yields a nil shard, whose handles are no-ops.
func (c *Collector) SubstrateShard() *Shard {
	if c == nil {
		return nil
	}
	return c.newShard(true)
}

func (c *Collector) newShard(substrate bool) *Shard {
	s := &Shard{substrate: substrate, col: c}
	c.mu.Lock()
	s.sampling = c.sampling
	c.shards = append(c.shards, s)
	c.mu.Unlock()
	return s
}

// RecordDatagen records d of data-preparation wall time and the number of
// input items it produced into the data-generation metric family. The
// observation lands in a dedicated substrate-style shard: it appears in the
// Ops profile and as Result.DataPrep, but never counts toward Throughput
// (preparing input is not serving an operation). Safe for concurrent use.
func (c *Collector) RecordDatagen(d time.Duration, items int64) {
	c.dgen.Op(DatagenOp).Observe(d)
	if items > 0 {
		c.dgen.CounterRef(DatagenItems).Add(items)
	}
}

// SetElapsed sets the measured wall time: the caller times the interval on
// the collector's clock (Now before, SetElapsed after), as the engine does
// for a repetition and for an open-loop window.
func (c *Collector) SetElapsed(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elapsed = d
}

// Op mints a pre-resolved latency handle on the collector's default shard;
// see Shard.Op.
func (c *Collector) Op(name string) OpRef { return c.def.Op(name) }

// CounterRef mints a pre-resolved counter handle on the collector's default
// shard; see Shard.CounterRef.
func (c *Collector) CounterRef(name string) CounterRef { return c.def.CounterRef(name) }

// OpStats summarizes the latency profile of one operation type.
type OpStats struct {
	Op    string
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Substrate marks labels observed only by stack-internal shards
	// (Collector.SubstrateShard): echoes underneath the workload's own
	// measurements. Reports should prefer non-substrate ops when picking a
	// representative latency profile.
	Substrate bool
}

// Result is the immutable outcome of a measured workload execution.
type Result struct {
	Name     string
	Elapsed  time.Duration
	Ops      []OpStats
	Counters map[string]int64
	// Throughput is total operations per second over the measured interval.
	Throughput float64
	// MOPS is the architecture metric: millions of abstract operations per
	// second, bdbench's stand-in for MIPS/MFLOPS on a simulated substrate.
	MOPS float64
	// DataPrep is the data-generation metric family: total wall time spent
	// preparing this run's input data (RecordDatagen observations). It is
	// part of Elapsed, reported separately so generation cost stays
	// visible, as the paper requires.
	DataPrep time.Duration
	// Energy and Cost are estimates produced by the models below; zero if
	// no model was applied.
	EnergyJoules float64
	CostUSD      float64
	// Samples holds the raw per-op latency streams when the collector had
	// sampling enabled (EnableSampling), nil otherwise. Excluded from JSON:
	// reports summarize, the runstore blob is where streams persist.
	Samples []OpSamples `json:"-"`
}

// Snapshot freezes the collector into a Result, merging every shard's
// histograms and counters (a straight counts/sum/max fold over the fixed
// bucket layout). It is safe to call while observations are still in
// flight; Elapsed and the rates are over the interval SetElapsed recorded.
//
// Throughput (user-perceivable family) is the workload-level
// latency-observation count over the measured interval — substrate shards'
// echoes are excluded — falling back to the "records" counter when no
// latencies were recorded. MOPS (architecture family) is computed
// independently from the ArchitectureCounters, so the two §3.1 families
// never collapse into rescalings of each other.
func (c *Collector) Snapshot() Result {
	c.mu.Lock()
	elapsed := c.elapsed
	shards := append([]*Shard(nil), c.shards...)
	c.mu.Unlock()

	// User-level and substrate-level observations merge into the same Ops
	// list, but only user-level counts feed the Throughput total: substrate
	// shards echo work the workload already measures once at its own level.
	userLat := make(map[string]*stats.LatencyHistogram)
	subLat := make(map[string]*stats.LatencyHistogram)
	counters := make(map[string]int64)
	for _, s := range shards {
		if s.substrate {
			s.drainLatencies(subLat)
		} else {
			s.drainLatencies(userLat)
		}
		s.drainCounters(counters)
	}

	r := Result{Name: c.name, Elapsed: elapsed, Counters: counters, Samples: drainAllSamples(shards)}
	var total uint64
	opSet := make(map[string]bool, len(userLat)+len(subLat))
	for op := range userLat {
		opSet[op] = true
	}
	for op := range subLat {
		opSet[op] = true
	}
	ops := make([]string, 0, len(opSet))
	for op := range opSet {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		h := userLat[op]
		substrate := h == nil
		if substrate {
			h = &stats.LatencyHistogram{}
		}
		total += h.Count()
		if sub := subLat[op]; sub != nil {
			h.Merge(sub)
		}
		if op == DatagenOp {
			r.DataPrep = h.Sum()
		}
		r.Ops = append(r.Ops, OpStats{
			Op:        op,
			Count:     h.Count(),
			Mean:      h.Mean(),
			P50:       h.Quantile(0.50),
			P95:       h.Quantile(0.95),
			P99:       h.Quantile(0.99),
			Max:       h.Max(),
			Substrate: substrate,
		})
	}
	if total == 0 {
		if rec := counters["records"]; rec > 0 {
			total = uint64(rec)
		}
	}
	if elapsed > 0 && total > 0 {
		r.Throughput = float64(total) / elapsed.Seconds()
	}
	var archOps int64
	for _, name := range ArchitectureCounters {
		archOps += counters[name]
	}
	if elapsed > 0 && archOps > 0 {
		r.MOPS = float64(archOps) / elapsed.Seconds() / 1e6
	}
	return r
}

// EnergyModel estimates energy use of a run from wall time, CPU-active time
// and node count. The paper (§3.1) requires benchmarks to report energy
// consumption; on a simulated substrate we apply a standard linear power
// model: P = Pidle + (Pactive-Pidle) * utilization.
type EnergyModel struct {
	IdleWatts   float64 // per-node power when idle
	ActiveWatts float64 // per-node power at full utilization
	Nodes       int     // simulated cluster size
}

// DefaultEnergyModel approximates a commodity 2U server.
var DefaultEnergyModel = EnergyModel{IdleWatts: 100, ActiveWatts: 350, Nodes: 1}

// Estimate returns joules for a run lasting wall time with the given
// CPU-active time summed across all cores/nodes.
func (m EnergyModel) Estimate(wall, active time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	util := active.Seconds() / wall.Seconds()
	if util > 1 {
		util = 1
	}
	if util < 0 {
		util = 0
	}
	perNode := m.IdleWatts + (m.ActiveWatts-m.IdleWatts)*util
	return perNode * float64(m.Nodes) * wall.Seconds()
}

// CostModel converts runtime into money, the paper's "cost effectiveness"
// axis. Price is per node-hour.
type CostModel struct {
	NodeHourUSD float64
	Nodes       int
}

// DefaultCostModel approximates a mid-size cloud VM.
var DefaultCostModel = CostModel{NodeHourUSD: 0.50, Nodes: 1}

// Estimate returns dollars for a run lasting wall time.
func (m CostModel) Estimate(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return m.NodeHourUSD * float64(m.Nodes) * wall.Hours()
}

// Apply attaches energy and cost estimates to a result. active is the
// CPU-active time (use wall*cores for fully parallel phases).
func Apply(r *Result, em EnergyModel, cm CostModel, active time.Duration) {
	r.EnergyJoules = em.Estimate(r.Elapsed, active)
	r.CostUSD = cm.Estimate(r.Elapsed)
}
