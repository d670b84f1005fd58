// Package oltp implements YCSB's core cloud-serving workloads A-F against
// the NoSQL substrate — the "online services" row of the paper's Table 2
// for YCSB and CloudSuite. Each workload is a ratio mix of read, update,
// insert, scan and read-modify-write operations under a configurable
// request distribution (zipfian, uniform or latest).
package oltp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/nosql"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Distribution selects the request key distribution.
type Distribution string

// The supported request distributions.
const (
	DistZipfian Distribution = "zipfian"
	DistUniform Distribution = "uniform"
	DistLatest  Distribution = "latest"
)

// Mix is the operation ratio of a core workload; fractions must sum to 1.
type Mix struct {
	Read   float64
	Update float64
	Insert float64
	Scan   float64
	RMW    float64
}

// CoreWorkload is a parameterized YCSB workload.
type CoreWorkload struct {
	Label       string
	Mix         Mix
	Dist        Distribution
	OpsPerScale int // operations per Scale unit (default 10000)
}

// The record shape and scan bound of every core workload (YCSB's defaults).
const (
	fieldCount = 10  // fields per record
	fieldLen   = 100 // bytes per field
	maxScanLen = 100
)

// The six standard workloads, with YCSB's canonical mixes.
var (
	// WorkloadA is update-heavy: 50/50 read/update, zipfian.
	WorkloadA = CoreWorkload{Label: "A", Mix: Mix{Read: 0.5, Update: 0.5}, Dist: DistZipfian}
	// WorkloadB is read-mostly: 95/5 read/update, zipfian.
	WorkloadB = CoreWorkload{Label: "B", Mix: Mix{Read: 0.95, Update: 0.05}, Dist: DistZipfian}
	// WorkloadC is read-only, zipfian.
	WorkloadC = CoreWorkload{Label: "C", Mix: Mix{Read: 1}, Dist: DistZipfian}
	// WorkloadD reads the latest inserts: 95/5 read/insert, latest.
	WorkloadD = CoreWorkload{Label: "D", Mix: Mix{Read: 0.95, Insert: 0.05}, Dist: DistLatest}
	// WorkloadE scans short ranges: 95/5 scan/insert, zipfian.
	WorkloadE = CoreWorkload{Label: "E", Mix: Mix{Scan: 0.95, Insert: 0.05}, Dist: DistZipfian}
	// WorkloadF read-modify-writes: 50/50 read/RMW, zipfian.
	WorkloadF = CoreWorkload{Label: "F", Mix: Mix{Read: 0.5, RMW: 0.5}, Dist: DistZipfian}
)

// Name implements workloads.Workload.
func (w CoreWorkload) Name() string { return "ycsb-" + w.Label }

// Category implements workloads.Workload.
func (CoreWorkload) Category() workloads.Category { return workloads.Online }

// Domain implements workloads.Workload.
func (CoreWorkload) Domain() string { return "cloud OLTP" }

// StackTypes implements workloads.Workload.
func (CoreWorkload) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeNoSQL} }

func (w CoreWorkload) defaults() CoreWorkload {
	if w.OpsPerScale <= 0 {
		w.OpsPerScale = 10000
	}
	return w
}

// key writes id's key, "user" and twelve digits. Converted at a call that
// does not keep the key (every store operation but Insert), string(k[:])
// stays on the caller's stack.
//
//bdbench:hotpath
func key(id int64) (k [16]byte) {
	copy(k[:], "user")
	for i := len(k) - 1; i >= 4; i-- {
		k[i] = byte('0' + id%10)
		id /= 10
	}
	return k
}

// fieldNames are the names of a record's fields.
var fieldNames = [fieldCount]string{
	"field0", "field1", "field2", "field3", "field4",
	"field5", "field6", "field7", "field8", "field9",
}

// fillRecord draws a record's ten values into rec: one allocation, which the
// values slice.
func fillRecord(rec nosql.Record, g *stats.RNG) {
	var b strings.Builder
	b.Grow(fieldCount * fieldLen)
	for range fieldNames {
		g.WriteWord(&b, fieldLen, fieldLen)
	}
	values := b.String()
	for f, name := range fieldNames {
		rec[name] = values[f*fieldLen : (f+1)*fieldLen]
	}
}

// Load populates the store with recordCount records.
func (CoreWorkload) Load(store *nosql.Store, g *stats.RNG, recordCount int64) {
	rec := make(nosql.Record, fieldCount) // Insert copies it
	for i := int64(0); i < recordCount; i++ {
		k := key(i)
		fillRecord(rec, g)
		store.Insert(string(k[:]), rec)
	}
}

// Run implements workloads.Workload: load Scale*10000 records, then execute
// Scale*OpsPerScale operations from Workers concurrent clients, recording
// per-operation latencies.
func (w CoreWorkload) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	w = w.defaults()
	p = p.WithDefaults()
	recordCount := int64(p.Scale) * 10000
	opCount := int64(p.Scale) * int64(w.OpsPerScale)

	if err := ctx.Err(); err != nil {
		return err
	}
	store := nosql.Open(max(p.Workers, 4), p.Seed)
	loadG := stats.NewRNG(p.Seed)
	loadStart := time.Now()
	w.Load(store, loadG, recordCount)
	c.ObserveLatency("load", time.Since(loadStart))
	// Instrument after the load so the store-level kv_* latencies describe
	// the serving phase only (the load is already measured as "load").
	store.Instrument(c)

	run := &coreRun{insertCursor: recordCount}
	var wg sync.WaitGroup
	for cl := 0; cl < p.Workers; cl++ {
		// The first opCount mod Workers clients run one operation more, so
		// the clients' operations sum to opCount.
		ops := opCount / int64(p.Workers)
		if int64(cl) < opCount%int64(p.Workers) {
			ops++
		}
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Each client records into its own shard, through handles
			// bound once here: the operation loop below is the hottest
			// measurement path in bdbench and must neither serialize
			// clients on a shared collector lock nor look a label up.
			shard := c.Shard()
			self := client{
				g:       stats.NewRNG(p.Seed).Split("client", cl),
				chooser: w.chooser(&run.insertCursor, recordCount),
				rec:     make(nosql.Record, fieldCount),
			}
			for op, name := range opNames {
				self.refs[op] = shard.Op(name)
			}
			for op := int64(0); op < ops; op++ {
				if op%64 == 0 && ctx.Err() != nil {
					return
				}
				w.doOne(store, run, &self)
			}
		}(cl)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Add("records", opCount)
	c.Add("errors", atomic.LoadInt64(&run.errCount))

	// The insert cursor publishes an id only after the record is in the
	// store, so no operation should ever observe a missing key. Any error
	// is a correctness failure.
	if n := atomic.LoadInt64(&run.errCount); n > 0 {
		return fmt.Errorf("ycsb-%s: %d operation errors", w.Label, n)
	}
	return nil
}

// coreRun is the shared mutable state of one workload execution.
type coreRun struct {
	// insertCursor is the count of keys guaranteed visible in the store.
	// It is read atomically by key choosers and advanced under insertMu
	// only after the corresponding Insert completes, so readers never
	// select a not-yet-inserted key.
	insertCursor int64
	insertMu     sync.Mutex
	errCount     int64
}

// client is the private state of one closed-loop client.
type client struct {
	g       *stats.RNG
	chooser stats.IntSampler
	refs    [numOps]metrics.OpRef
	rec     nosql.Record // what an insert fills; Store.Insert copies it
}

// chooser builds the key sampler for the workload's distribution. The
// insertCursor pointer lets "latest" track concurrent inserts.
func (w CoreWorkload) chooser(insertCursor *int64, recordCount int64) stats.IntSampler {
	switch w.Dist {
	case DistUniform:
		return stats.UniformInt{Count: recordCount}
	case DistLatest:
		return stats.Latest{Max: insertCursor, S: 1.1}
	default:
		return stats.ScrambledZipf{Count: recordCount, S: 1.1}
	}
}

// The operations of the mix, indexing a client's latency handles.
const (
	opRead = iota
	opUpdate
	opInsert
	opScan
	opRMW
	numOps
)

// opNames are the operation labels clients record under.
var opNames = [numOps]string{"read", "update", "insert", "scan", "rmw"}

func (w CoreWorkload) doOne(store *nosql.Store, run *coreRun, cl *client) {
	g := cl.g
	u := g.Float64()
	var op int
	switch {
	case u < w.Mix.Read:
		op = opRead
	case u < w.Mix.Read+w.Mix.Update:
		op = opUpdate
	case u < w.Mix.Read+w.Mix.Update+w.Mix.Insert:
		op = opInsert
	case u < w.Mix.Read+w.Mix.Update+w.Mix.Insert+w.Mix.Scan:
		op = opScan
	default:
		op = opRMW
	}
	limit := atomic.LoadInt64(&run.insertCursor)
	id := cl.chooser.Next(g)
	if id >= limit {
		id = limit - 1
	}
	k := key(id)
	t0 := time.Now()
	var err error
	switch op {
	case opRead:
		_, err = store.Read(string(k[:]), nil)
	case opUpdate:
		err = store.Update(string(k[:]), nosql.Record{"field0": g.RandomWord(fieldLen, fieldLen)})
	case opInsert:
		fillRecord(cl.rec, g)
		run.insertMu.Lock()
		next := key(atomic.LoadInt64(&run.insertCursor))
		store.Insert(string(next[:]), cl.rec)
		atomic.AddInt64(&run.insertCursor, 1)
		run.insertMu.Unlock()
	case opScan:
		store.Scan(string(k[:]), 1+g.IntN(maxScanLen))
	case opRMW:
		err = store.ReadModifyWrite(string(k[:]), func(rec nosql.Record) nosql.Record {
			rec["field0"] = g.RandomWord(fieldLen, fieldLen)
			return rec
		})
	}
	cl.refs[op].ObserveSince(t0)
	if err != nil {
		atomic.AddInt64(&run.errCount, 1)
	}
}
