// Package graphengine is bdbench's Pregel-style BSP graph substrate: vertex
// programs execute in synchronized supersteps, exchange float64 messages
// along out-edges, and vote to halt. It stands in for the GraphLab-class
// stacks of the paper's survey; PageRank, connected components and
// single-source shortest paths ship as built-in programs.
package graphengine

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
)

// Context is the API a vertex program uses during Compute.
type Context struct {
	superstep int
	outbox    []outMsg
	halted    bool
	numVerts  int64
}

type outMsg struct {
	dst int64
	val float64
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// NumVertices returns the graph's vertex count.
func (c *Context) NumVertices() int64 { return c.numVerts }

// Send delivers a message to dst at the next superstep.
func (c *Context) Send(dst int64, val float64) {
	c.outbox = append(c.outbox, outMsg{dst, val})
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
	// messages and vote to halt.
	Compute(v *Vertex, msgs []float64, ctx *Context)
	// Name identifies the program.
	Name() string
}

// Result reports an engine run.
type Result struct {
	Supersteps   int
	MessagesSent int64
	Wall         time.Duration
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

// Name implements stacks.Stack.
func (e *Engine) Name() string { return "bdbench-graphengine" }

// Type implements stacks.Stack.
func (e *Engine) Type() stacks.Type { return stacks.TypeGraph }

var _ stacks.Stack = (*Engine)(nil)

// Run executes the program on the graph for at most maxSupersteps.
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
	inbox := make([][]float64, n)
	var totalMsgs int64
	start := time.Now()

	// One private shard per worker, reused across supersteps: only worker w
	// touches computeRefs[w] during a superstep, so compute-time recording
	// never contends. The OpRefs are resolved here, once, so the superstep
	// loop records through direct handles instead of per-call label lookups.
	superstepRef := e.rec.SubstrateShard().Op("superstep")
	computeRefs := make([]metrics.OpRef, e.workers)
	for w := range computeRefs {
		computeRefs[w] = e.rec.SubstrateShard().Op("compute")
	}

	res := Result{}
	for step := 0; step < maxSupersteps; step++ {
		stepStart := superstepRef.StartTimer()
		active := false
		// Partition vertices across workers; each worker accumulates its
		// own outboxes to avoid contention, merged after the barrier.
		type workerOut struct {
			msgs   []outMsg
			worked bool
		}
		outs := make([]workerOut, e.workers)
		var wg sync.WaitGroup
		for w := 0; w < e.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				computeRef := computeRefs[w]
				computeStart := computeRef.StartTimer()
				defer computeRef.ObserveSince(computeStart)
				lo := n * int64(w) / int64(e.workers)
				hi := n * int64(w+1) / int64(e.workers)
				ctx := Context{superstep: step, numVerts: n}
				for v := lo; v < hi; v++ {
					msgs := inbox[v]
					if halted[v] && len(msgs) == 0 {
						continue
					}
					halted[v] = false
					ctx.outbox = ctx.outbox[:0]
					ctx.halted = false
					prog.Compute(&verts[v], msgs, &ctx)
					inbox[v] = nil
					if ctx.halted {
						halted[v] = true
					} else {
						outs[w].worked = true
					}
					outs[w].msgs = append(outs[w].msgs, ctx.outbox...)
					outs[w].worked = outs[w].worked || len(ctx.outbox) > 0
				}
			}(w)
		}
		wg.Wait()
		// Barrier: deliver messages for the next superstep.
		delivered := int64(0)
		for _, wo := range outs {
			for _, m := range wo.msgs {
				if m.dst < 0 || m.dst >= n {
					return Result{}, fmt.Errorf("graphengine: message to vertex %d out of range", m.dst)
				}
				inbox[m.dst] = append(inbox[m.dst], m.val)
				delivered++
			}
			active = active || wo.worked
		}
		totalMsgs += delivered
		res.Supersteps = step + 1
		superstepRef.ObserveSince(stepStart)
		if !active && delivered == 0 {
			res.Halted = true
			break
		}
	}
	res.MessagesSent = totalMsgs
	res.Wall = time.Since(start)
	res.Values = make([]float64, n)
	for i := range verts {
		res.Values[i] = verts[i].Value
	}
	return res, nil
}

// PageRank is the canonical web-graph program: value converges to the
// stationary visit probability with the given damping.
type PageRank struct {
	Damping float64 // default 0.85
}

// Name implements Program.
func (p PageRank) Name() string { return "pagerank" }

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

// Name implements Program.
func (ConnectedComponents) Name() string { return "connected-components" }

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

// SSSP computes single-source shortest hop counts from Source; unreached
// vertices end at +Inf.
type SSSP struct {
	Source int64
}

// Name implements Program.
func (s SSSP) Name() string { return "sssp" }

// Init implements Program.
func (s SSSP) Init(v *Vertex) {
	if v.ID == s.Source {
		v.Value = 0
	} else {
		v.Value = math.Inf(1)
	}
}

// Compute implements Program.
func (s SSSP) Compute(v *Vertex, msgs []float64, ctx *Context) {
	best := v.Value
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	changed := best < v.Value
	if ctx.Superstep() == 0 && v.ID == s.Source {
		changed = true
	}
	if changed {
		v.Value = best
		for _, dst := range v.Out {
			ctx.Send(dst, v.Value+1)
		}
	}
	ctx.VoteToHalt()
}

// Undirected returns a copy of g with reverse edges added, which CC and
// SSSP need to treat the graph as undirected.
func Undirected(g *graphgen.Graph) *graphgen.Graph {
	out := &graphgen.Graph{N: g.N, Edges: make([]graphgen.Edge, 0, 2*len(g.Edges))}
	out.Edges = append(out.Edges, g.Edges...)
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, graphgen.Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}
