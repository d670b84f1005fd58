// Package graphengine is bdbench's Pregel-style BSP graph substrate: vertex
// programs execute in synchronized supersteps, exchange float64 messages
// along out-edges, and vote to halt. It stands in for the GraphLab-class
// stacks of the paper's survey; PageRank, connected components and
// single-source shortest paths ship as built-in programs.
package graphengine

import (
	"fmt"
	"sync"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/metrics"
)

// Context is the API a vertex program uses during Compute. Each worker owns
// one for a whole run.
type Context struct {
	superstep int
	numVerts  int64
	halted    bool
	// out is this worker's outbox, one bucket per destination partition,
	// emptied at the start of a superstep and kept at capacity across them.
	// Partition p of len(out) owns the vertices [n*p/len(out), n*(p+1)/len(out)).
	out [][]outMsg
	// badDst is the first out-of-range destination this worker was asked to
	// send to in the current superstep, valid when bad is set.
	bad    bool
	badDst int64
}

type outMsg struct {
	dst int64
	val float64
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// Send delivers a message to dst at the next superstep.
func (c *Context) Send(dst int64, val float64) {
	if dst < 0 || dst >= c.numVerts {
		if !c.bad {
			c.bad, c.badDst = true, dst
		}
		return
	}
	// The p with n*p/len(out) <= dst < n*(p+1)/len(out), in integers.
	p := (uint64(dst+1)*uint64(len(c.out)) - 1) / uint64(c.numVerts)
	c.out[p] = append(c.out[p], outMsg{dst, val})
}

// VoteToHalt marks this vertex inactive until a message wakes it.
func (c *Context) VoteToHalt() { c.halted = true }

// Vertex is the engine's per-vertex state.
type Vertex struct {
	ID    int64
	Value float64
	Out   []int64
}

// Program is a vertex program in the Pregel model.
type Program interface {
	// Init sets the vertex's initial value before superstep 0.
	Init(v *Vertex)
	// Compute processes incoming messages and may mutate the value, send
	// messages and vote to halt. msgs is in the order Engine.Run documents
	// and belongs to the engine: it is valid until Compute returns.
	Compute(v *Vertex, msgs []float64, ctx *Context)
}

// Result reports an engine run.
type Result struct {
	Supersteps   int
	MessagesSent int64
	Values       []float64
	Halted       bool // true if all vertices halted before MaxSupersteps
}

// Engine executes programs with a fixed worker pool.
type Engine struct {
	workers int
	rec     *metrics.Collector
}

// New returns an engine with the given parallelism (clamped to >= 1).
func New(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers}
}

// Instrument attaches a collector (nil detaches) and returns the engine.
// Each BSP worker records its per-superstep compute wall time into a private
// shard minted from rec, and the coordinator records whole-superstep wall
// times, all without shared-lock contention on the compute path.
func (e *Engine) Instrument(rec *metrics.Collector) *Engine {
	e.rec = rec
	return e
}

// worker is one BSP worker and, between two compute phases, the destination
// partition of the same vertex range [lo, hi): it computes those vertices,
// then gathers what every worker sent them.
type worker struct {
	ctx    Context
	lo, hi int64
	// The partition's inbox: vertex lo+i reads buf[pos[i]:pos[i+1]].
	pos []int
	buf []float64
	// active reports that the last compute phase left a vertex unhalted.
	active     bool
	computeRef metrics.OpRef
	// Built once, so that starting them every superstep allocates nothing.
	compute, exchange func()
	// A worker writes its own fields per vertex (ctx.halted); the pad keeps
	// the next worker's off the same cache line.
	_ [64]byte
}

// bucketPad is how many unused bucket headers (24 bytes each) lie between two
// workers' outboxes: Send rewrites a header per message, and two workers must
// not do that to one cache line.
const bucketPad = 3

// Run executes the program on the graph for at most maxSupersteps.
//
// Order is part of the contract: a vertex receives the messages of one
// superstep in ascending order of the sending vertex, and those of one sender
// in the order of its Send calls, whatever the worker count. A program that
// folds its messages with a float sum (PageRank) therefore computes the same
// bits at any parallelism. It holds because workers own ascending contiguous
// vertex ranges and walk them in order, and every destination partition reads
// the workers' buckets in worker order.
//
// The exchange between two compute phases is parallel as well: each partition
// counts its incoming messages, prefix-sums the counts into offsets and
// scatters the values into one buffer it owns (worker.gather). Once the
// buffers have grown to the busiest superstep, a superstep allocates nothing.
func (e *Engine) Run(g *graphgen.Graph, prog Program, maxSupersteps int) (Result, error) {
	if g.N == 0 {
		return Result{}, fmt.Errorf("graphengine: empty graph")
	}
	if maxSupersteps < 1 {
		maxSupersteps = 1
	}
	n := g.N
	adj := g.Adjacency()
	verts := make([]Vertex, n)
	for i := int64(0); i < n; i++ {
		verts[i] = Vertex{ID: i, Out: adj[i]}
		prog.Init(&verts[i])
	}
	halted := make([]bool, n)

	nw := e.workers
	stride := nw + bucketPad
	buckets := make([][]outMsg, nw*stride) // worker w's bucket for partition p is buckets[w*stride+p]
	workers := make([]worker, nw)
	superstepRef := e.rec.SubstrateShard().Op("superstep")
	var wg sync.WaitGroup
	for w := range workers {
		wk := &workers[w]
		wk.ctx = Context{numVerts: n, out: buckets[w*stride:][:nw]}
		wk.lo, wk.hi = n*int64(w)/int64(nw), n*int64(w+1)/int64(nw)
		wk.pos = make([]int, wk.hi-wk.lo+2)
		// One private shard per worker, its OpRef resolved once: only worker
		// w touches it, so compute-time recording never contends.
		wk.computeRef = e.rec.SubstrateShard().Op("compute")
		wk.compute = func() {
			defer wg.Done()
			computeStart := wk.computeRef.StartTimer()
			wk.computeRange(prog, verts, halted)
			wk.computeRef.ObserveSince(computeStart)
		}
		wk.exchange = func() {
			defer wg.Done()
			wk.gather(buckets[w:], stride)
		}
	}

	res := Result{}
	for step := 0; step < maxSupersteps; step++ {
		stepStart := superstepRef.StartTimer()
		wg.Add(len(workers))
		for w := range workers {
			workers[w].ctx.superstep = step
			go workers[w].compute()
		}
		wg.Wait()
		// Barrier. An out-of-range destination is reported for the first
		// offender in worker order, and within a worker in Send order.
		active, sent := false, int64(0)
		for w := range workers {
			wk := &workers[w]
			if wk.ctx.bad {
				return Result{}, fmt.Errorf("graphengine: message to vertex %d out of range", wk.ctx.badDst)
			}
			active = active || wk.active
			for _, b := range wk.ctx.out {
				sent += int64(len(b))
			}
		}
		res.MessagesSent += sent
		res.Supersteps = step + 1
		res.Halted = !active && sent == 0
		if !res.Halted && step+1 < maxSupersteps {
			wg.Add(len(workers))
			for w := range workers {
				go workers[w].exchange()
			}
			wg.Wait()
		}
		superstepRef.ObserveSince(stepStart)
		if res.Halted {
			break
		}
	}
	res.Values = make([]float64, n)
	for i := range verts {
		res.Values[i] = verts[i].Value
	}
	return res, nil
}

// computeRange runs one superstep's Compute over the worker's vertices, in
// order, filling the worker's buckets.
func (wk *worker) computeRange(prog Program, verts []Vertex, halted []bool) {
	ctx, pos, buf := &wk.ctx, wk.pos, wk.buf
	for p := range ctx.out {
		ctx.out[p] = ctx.out[p][:0]
	}
	active := false
	for v := wk.lo; v < wk.hi; v++ {
		a, b := pos[v-wk.lo], pos[v-wk.lo+1]
		if halted[v] && a == b {
			continue
		}
		ctx.halted = false
		// Capped at its length: a program that appends to msgs copies them,
		// it does not write into the next vertex's inbox.
		prog.Compute(&verts[v], buf[a:b:b], ctx)
		halted[v] = ctx.halted
		active = active || !ctx.halted
	}
	wk.active = active
}

// gather is the exchange kernel of one destination partition: it rebuilds the
// partition's inbox from the buckets addressed to it — column[0],
// column[stride], ... in worker order. Count per vertex, prefix-sum the
// counts into offsets, scatter the values. Vertex i is counted two slots up,
// in pos[i+2], so that after the sum pos[i+1] is where i's messages start and,
// once the scatter has advanced it, where they end and i+1's start.
//
//bdbench:hotpath
func (wk *worker) gather(column [][]outMsg, stride int) {
	pos, lo := wk.pos, wk.lo
	clear(pos)
	total := 0
	for w := 0; w < len(column); w += stride {
		for _, m := range column[w] {
			pos[m.dst-lo+2]++
		}
		total += len(column[w])
	}
	for i := 2; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	if total > cap(wk.buf) {
		wk.growInbox(total)
	}
	buf := wk.buf[:total]
	for w := 0; w < len(column); w += stride {
		for _, m := range column[w] {
			buf[pos[m.dst-lo+1]] = m.val
			pos[m.dst-lo+1]++
		}
	}
	wk.buf = buf
}

// growInbox is gather's cold path. It at least doubles, so that a program
// whose frontier widens step by step (a shortest-path search) does not
// reallocate every time.
func (wk *worker) growInbox(total int) {
	wk.buf = make([]float64, max(total, 2*cap(wk.buf)))
}

// PageRank is the canonical web-graph program: value converges to the
// stationary visit probability with the given damping.
type PageRank struct {
	Damping float64 // default 0.85
}

// Init implements Program.
func (p PageRank) Init(v *Vertex) { v.Value = 1 }

func (p PageRank) damping() float64 {
	if p.Damping <= 0 || p.Damping >= 1 {
		return 0.85
	}
	return p.Damping
}

// Compute implements Program.
func (p PageRank) Compute(v *Vertex, msgs []float64, ctx *Context) {
	d := p.damping()
	if ctx.Superstep() > 0 {
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		v.Value = (1 - d) + d*sum
	}
	if len(v.Out) > 0 {
		share := v.Value / float64(len(v.Out))
		for _, dst := range v.Out {
			ctx.Send(dst, share)
		}
	}
	// PageRank runs for a fixed superstep budget; vertices never halt
	// voluntarily, the engine's maxSupersteps bounds the run.
}

// ConnectedComponents labels every vertex with the smallest vertex id
// reachable from it (treating edges as undirected requires the graph to
// carry reverse edges; bdbench workloads add them).
type ConnectedComponents struct{}

// Init implements Program.
func (ConnectedComponents) Init(v *Vertex) { v.Value = float64(v.ID) }

// Compute implements Program.
func (ConnectedComponents) Compute(v *Vertex, msgs []float64, ctx *Context) {
	min := v.Value
	for _, m := range msgs {
		if m < min {
			min = m
		}
	}
	if ctx.Superstep() == 0 || min < v.Value {
		v.Value = min
		for _, dst := range v.Out {
			ctx.Send(dst, min)
		}
	}
	ctx.VoteToHalt()
}

// Undirected returns a copy of g with reverse edges added, which CC needs
// to treat the graph as undirected.
func Undirected(g *graphgen.Graph) *graphgen.Graph {
	out := &graphgen.Graph{N: g.N, Edges: make([]graphgen.Edge, 0, 2*len(g.Edges))}
	out.Edges = append(out.Edges, g.Edges...)
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, graphgen.Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}
