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
// — atomic counter cells and atomic fixed-bucket latency histograms
// (stats.AtomicLatencyHistogram), with a mutex taken only when a new label's
// handle is minted.
//
// There is one write path: Collector → Shard → OpRef/CounterRef. Code below
// the collector records only through handles minted once, up front; the
// collector's own ObserveLatency/Add are one-shot conveniences over
// that same path for phase-level measurements.
package metrics

import (
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
// Internally it is a set of shards merged only at Snapshot time: the
// collector's own recording methods go through handles on a default shard
// whose hot path is lock-free, and worker goroutines can mint private shards
// with Shard so their operation loops never contend with each other at all.
// The collector's own mutex guards only the measured-interval lifecycle and
// the shard list.
type Collector struct {
	name string

	mu      sync.Mutex // guards the fields below, never the recording path
	start   time.Time
	started bool
	stopped bool
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
	s := &Shard{substrate: substrate}
	c.mu.Lock()
	s.sampling = c.sampling
	c.shards = append(c.shards, s)
	c.mu.Unlock()
	return s
}

// Start marks the beginning of the measured interval.
func (c *Collector) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start = time.Now()
	c.started = true
	c.stopped = false
	c.elapsed = 0
}

// Stop marks the end of the measured interval. Stop is idempotent: calls
// after the first (without an intervening Start) leave the measured interval
// unchanged instead of silently extending it.
func (c *Collector) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started && !c.stopped {
		c.elapsed = time.Since(c.start)
		c.stopped = true
	}
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

// SetElapsed overrides the measured wall time; used when the caller measures
// the interval itself (e.g. inside testing.B loops).
func (c *Collector) SetElapsed(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elapsed = d
	c.started = true
	c.stopped = true
}

// elapsedLocked returns the measured interval, reading the live clock for a
// collector that is started but not yet stopped. Callers hold c.mu.
func (c *Collector) elapsedLocked() time.Duration {
	if c.started && !c.stopped {
		return time.Since(c.start)
	}
	return c.elapsed
}

// ObserveLatency records one operation latency under the given operation
// label ("read", "update", ...).
func (c *Collector) ObserveLatency(op string, d time.Duration) {
	c.def.Op(op).Observe(d)
}

// Add increments the named counter by delta. Counters capture architecture
// metrics (records processed, bytes shuffled, messages sent, ...).
func (c *Collector) Add(counter string, delta int64) {
	c.def.CounterRef(counter).Add(delta)
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
// bucket layout). It is safe to call while observations are still in flight
// — including on a running collector, whose Elapsed and rates are then
// computed over the interval so far rather than reported as zero.
//
// Throughput (user-perceivable family) is the workload-level
// latency-observation count over the measured interval — substrate shards'
// echoes are excluded — falling back to the "records" counter when no
// latencies were recorded. MOPS (architecture family) is computed
// independently from the ArchitectureCounters, so the two §3.1 families
// never collapse into rescalings of each other.
func (c *Collector) Snapshot() Result {
	c.mu.Lock()
	elapsed := c.elapsedLocked()
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
