package opcompose

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// chunkOps is the operation count per execution chunk: the unit of
// parallelism of the composed operation stream, exactly like a datagen
// chunk is the unit of corpus generation. Each chunk derives its RNG from
// (seed, chunk index), so the stream's outputs are identical at any worker
// count.
const chunkOps = 512

// Compile validates the pattern against the operation vocabulary and the
// corpus registry and returns the synthetic workload it declares. The workload
// is indistinguishable from a built-in to everything downstream: it runs
// on the engine, records through pre-resolved OpRefs under "phase/op"
// labels, regenerates its corpus from the seed, and its operation stream
// partitions into chunks whose results are byte-identical at any
// Workers/DatagenWorkers setting.
func Compile(p Pattern) (workloads.Workload, error) {
	w, err := compile(p)
	if err != nil {
		return nil, err
	}
	// Composed workloads run on the abstract substrate, like prescription
	// workloads on the reference executor.
	return workloads.New(w.p.Name, workloads.Category(w.p.Category), "operation patterns",
		w.run, stacks.Type("abstract")), nil
}

// compile validates the pattern and resolves its phases.
func compile(p Pattern) (*composed, error) {
	n := p.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if n.Name == "" {
		return nil, fmt.Errorf("opcompose: %s: pattern has no name", n.describe())
	}
	if _, ok := datagen.Lookup(n.Corpus); !ok {
		return nil, fmt.Errorf("opcompose: %s: unknown corpus %q (have: %s)",
			n.describe(), n.Corpus, strings.Join(datagen.Generators(), ", "))
	}
	phases := make([]execPhase, len(n.Phases))
	for i, ph := range n.Phases {
		ops := make([]Operation, len(ph.Ops))
		weights := make([]float64, len(ph.Ops))
		for j, ow := range ph.Ops {
			op, ok := Lookup(ow.Op)
			if !ok {
				return nil, fmt.Errorf("opcompose: %s: phase %q: unknown operation %q (have: %s)",
					n.describe(), ph.Name, ow.Op, strings.Join(Operations(), ", "))
			}
			ops[j] = op
			weights[j] = ow.Weight
		}
		phases[i] = execPhase{name: ph.Name, ops: ops, frac: ph.Fraction, rate: ph.Rate}
		if len(ops) > 1 {
			phases[i].alias = stats.NewAlias(weights)
		}
	}
	return &composed{p: n, phases: phases}, nil
}

// execPhase is one compiled phase: resolved operations, a weighted sampler
// (nil for a single-op phase), and the declared share and pacing.
type execPhase struct {
	name  string
	ops   []Operation
	alias *stats.Alias
	frac  float64
	rate  float64
}

// composed is a compiled pattern; its run is the body of the workload
// Compile returns.
type composed struct {
	p      Pattern
	phases []execPhase
}

// fnvOffset and fnvPrime fold chunk fingerprints into the pattern digest.
const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// run generates the corpus through the chunked datagen pipeline, executes
// the operation stream chunk-parallel, recording each operation as it runs,
// and records the deterministic pattern digest. Capture order does not
// reach the artifact: runstore sorts a series' samples by (offset, value).
func (w *composed) run(ctx context.Context, params workloads.Params, c *metrics.Collector) error {
	cg, ok := datagen.Lookup(w.p.Corpus)
	if !ok {
		return fmt.Errorf("opcompose: corpus %q is not registered", w.p.Corpus)
	}
	// Datagen elapsed is measured on the run's clock (not the Stat's wall
	// clock) so frozen-clock runs stay byte-identical.
	t0 := c.Now()
	corpus, stat, err := datagen.Build(cg, params.Seed, params.Scale, params.DatagenWorkers)
	if err != nil {
		return fmt.Errorf("opcompose: corpus %q: %w", w.p.Corpus, err)
	}
	c.RecordDatagen(c.Now().Sub(t0), stat.Items)
	records := splitLines(corpus)
	if len(records) == 0 {
		return fmt.Errorf("opcompose: corpus %q generated no records at scale %d", w.p.Corpus, params.Scale)
	}

	total := int64(w.p.OpsPerScale) * int64(params.Scale)
	bounds := phaseBounds(w.phases, total)
	refs := make([][]metrics.OpRef, len(w.phases))
	for i, ph := range w.phases {
		refs[i] = make([]metrics.OpRef, len(ph.ops))
		for j, op := range ph.ops {
			refs[i][j] = c.Op(ph.name + "/" + op.Name)
		}
	}
	// A paced phase starts when a chunk worker first reaches one of its
	// operations, and its operation j (counted from its first, at stream
	// index firsts[i]) is due j/rate later on the run's clock, so its rate
	// holds at any worker count. Pacing shapes timing only — never outputs.
	starts := make([]atomic.Pointer[time.Time], len(w.phases))
	firsts := append([]int64{0}, bounds[:len(bounds)-1]...)

	// Decorrelate the op stream from the corpus generator: both derive
	// chunk RNGs from (seed, chunk index), so give the stream its own root.
	opSeed := stats.NewRNG(params.Seed).Split("opcompose/"+w.p.Name, 0).Seed()
	plan := datagen.PlanChunks(total, chunkOps)
	fps := make([]uint64, len(plan))
	err = datagen.Parallel(opSeed, len(plan), params.Workers, func(i int, g *stats.RNG) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ch := plan[i]
		fp := uint64(fnvOffset)
		octx := &OpContext{RNG: g, Records: records, Store: make(map[uint64]string, 64)}
		pi := phaseAt(bounds, ch.Start)
		var timer *time.Timer // the chunk's pacing timer, made at its first wall-clock sleep
		for idx := ch.Start; idx < ch.End; idx++ {
			for idx >= bounds[pi] {
				pi++
			}
			ph := &w.phases[pi]
			j := 0
			if ph.alias != nil {
				j = ph.alias.Sample(g)
			}
			start := c.Now()
			if ph.rate > 0 {
				if starts[pi].Load() == nil {
					first := start
					starts[pi].CompareAndSwap(nil, &first)
				}
				// Latency runs from the intended time, so an op slower
				// than the pace records the backlog it builds.
				due := starts[pi].Load().Add(time.Duration(float64(idx-firsts[pi]) / ph.rate * float64(time.Second)))
				var err error
				if timer, err = c.SleepUntil(ctx, due, timer); err != nil {
					return err
				}
				if start = c.Now(); due.Before(start) {
					start = due
				}
			}
			out := ph.ops[j].Apply(octx)
			refs[pi][j].Observe(c.Now().Sub(start))
			fp = (fp ^ out) * fnvPrime
		}
		fps[i] = fp
		return nil
	})
	if err != nil {
		return fmt.Errorf("opcompose: %w", err)
	}

	// Fold the chunk fingerprints in plan order, no matter which workers
	// executed the chunks.
	var digest uint64 = fnvOffset
	for _, fp := range fps {
		digest = (digest ^ fp) * fnvPrime
	}
	c.CounterRef("ops").Add(total)
	c.CounterRef("records").Add(int64(len(records)))
	// The digest is the cross-run equivalence witness: same (pattern,
	// seed, scale) must yield the same value at any worker count, on any
	// machine. Masked to keep the int64 counter non-negative.
	c.CounterRef("pattern_digest").Add(int64(digest & (1<<62 - 1)))
	return ctx.Err()
}

// phaseBounds turns phase fractions into cumulative operation-index
// bounds: phase i owns stream indices [bounds[i-1], bounds[i]). Rounding
// error lands on the last phase, which always ends at total.
func phaseBounds(phases []execPhase, total int64) []int64 {
	bounds := make([]int64, len(phases))
	cum := 0.0
	for i, ph := range phases {
		cum += ph.frac
		bounds[i] = int64(cum*float64(total) + 0.5)
	}
	bounds[len(bounds)-1] = total
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	return bounds
}

// phaseAt returns the phase owning stream index idx.
func phaseAt(bounds []int64, idx int64) int {
	for i, b := range bounds {
		if idx < b {
			return i
		}
	}
	return len(bounds) - 1
}

// splitLines splits the corpus into one record per line, dropping the
// trailing empty slot of a newline-terminated corpus.
func splitLines(corpus []byte) []string {
	records := strings.Split(string(corpus), "\n")
	for len(records) > 0 && records[len(records)-1] == "" {
		records = records[:len(records)-1]
	}
	return records
}
