package graphengine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

// referenceRun is Engine.Run's exchange as it was before the
// partition-parallel one: each worker regrows one outbox per superstep and
// the coordinator alone appends every message to a per-vertex inbox, in
// worker order. It stays as the oracle of TestRunMatchesReferenceExchange
// (metrics and wall time left out).
func referenceRun(workers int, g *graphgen.Graph, prog Program, maxSupersteps int) (Result, error) {
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
	res := Result{}
	for step := 0; step < maxSupersteps; step++ {
		active := false
		outs := make([][]outMsg, workers)
		// Serial over workers: the order of outs is what defines the exchange,
		// goroutines add nothing to it. A context with one partition that
		// covers every vertex is the old single outbox.
		for w := 0; w < workers; w++ {
			lo := n * int64(w) / int64(workers)
			hi := n * int64(w+1) / int64(workers)
			ctx := Context{superstep: step, numVerts: n, out: make([][]outMsg, 1)}
			for v := lo; v < hi; v++ {
				msgs := inbox[v]
				if halted[v] && len(msgs) == 0 {
					continue
				}
				ctx.halted = false
				prog.Compute(&verts[v], msgs, &ctx)
				inbox[v] = nil
				halted[v] = ctx.halted
				if !ctx.halted {
					active = true
				}
			}
			// The old body met an out-of-range destination in the delivery
			// loop below, worker by worker; Send now sets it aside.
			if ctx.bad {
				return Result{}, fmt.Errorf("graphengine: message to vertex %d out of range", ctx.badDst)
			}
			outs[w] = ctx.out[0]
			active = active || len(outs[w]) > 0
		}
		delivered := int64(0)
		for _, msgs := range outs {
			for _, m := range msgs {
				inbox[m.dst] = append(inbox[m.dst], m.val)
				delivered++
			}
		}
		res.MessagesSent += delivered
		res.Supersteps = step + 1
		if !active && delivered == 0 {
			res.Halted = true
			break
		}
	}
	res.Values = make([]float64, n)
	for i := range verts {
		res.Values[i] = verts[i].Value
	}
	return res, nil
}

// gossip sends to vertices that are not its neighbours: every vertex mails
// (id*7+step) mod N and its mirror image for three supersteps, twice to the
// first so that order within one sender shows, and folds what it receives
// with a float sum and a position-dependent weight, so that any reordering
// of an inbox changes the bits.
type gossip struct{}

func (gossip) Init(v *Vertex) { v.Value = 1 / float64(v.ID+3) }
func (gossip) Compute(v *Vertex, msgs []float64, ctx *Context) {
	for i, m := range msgs {
		v.Value += m / float64(i+1)
	}
	if ctx.Superstep() >= 3 {
		ctx.VoteToHalt()
		return
	}
	n := ctx.numVerts
	dst := (v.ID*7 + int64(ctx.Superstep())) % n
	ctx.Send(dst, v.Value)
	ctx.Send(n-1-dst, v.Value/3)
	ctx.Send(dst, v.Value/7)
}

// SSSP computes single-source shortest hop counts from Source; unreached
// vertices end at +Inf. Its frontier widens step by step, which is the
// inbox-growth case of the exchange.
type SSSP struct {
	Source int64
}

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

// stray is gossip with out-of-range destinations in superstep 1: vertex 2
// sends past the end and then below zero, the last vertex to N+5.
type stray struct{ gossip }

func (s stray) Compute(v *Vertex, msgs []float64, ctx *Context) {
	s.gossip.Compute(v, msgs, ctx)
	if ctx.Superstep() == 1 {
		switch v.ID {
		case 2:
			ctx.Send(ctx.numVerts, 1)
			ctx.Send(-4, 1)
		case ctx.numVerts - 1:
			ctx.Send(ctx.numVerts+5, 1)
		}
	}
}

// TestRunMatchesReferenceExchange: the partition-parallel exchange computes
// what the coordinator-serial one did, bit for bit, at any worker count
// including more workers than vertices.
func TestRunMatchesReferenceExchange(t *testing.T) {
	graphs := []struct {
		name string
		g    *graphgen.Graph
	}{
		{"rmat", graphgen.DefaultRMAT.Generate(stats.NewRNG(5), 8)},
		{"ba-undirected", Undirected(graphgen.BarabasiAlbert{M: 2}.Generate(stats.NewRNG(6), 7))},
		{"chain7", chain(7)},
	}
	programs := []struct {
		prog  Program
		steps int
	}{
		{PageRank{}, 12}, {ConnectedComponents{}, 200}, {SSSP{Source: 1}, 200}, {gossip{}, 10}, {stray{}, 10},
	}
	for _, gr := range graphs {
		for _, pr := range programs {
			for _, workers := range []int{1, 2, 3, 8, 16} {
				name := fmt.Sprintf("%s/%T/w%d", gr.name, pr.prog, workers)
				want, wantErr := referenceRun(workers, gr.g, pr.prog, pr.steps)
				got, err := New(workers).Run(gr.g, pr.prog, pr.steps)
				if _, isStray := pr.prog.(stray); isStray != (wantErr != nil) {
					t.Fatalf("%s: reference error %v", name, wantErr)
				}
				if wantErr != nil {
					// Vertex 2 is the first offender at any worker count:
					// lowest worker that has one, first of its sends.
					if err == nil || err.Error() != wantErr.Error() ||
						err.Error() != fmt.Sprintf("graphengine: message to vertex %d out of range", gr.g.N) {
						t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Supersteps != want.Supersteps || got.MessagesSent != want.MessagesSent || got.Halted != want.Halted {
					t.Fatalf("%s: supersteps/messages/halted %d/%d/%v, reference %d/%d/%v", name,
						got.Supersteps, got.MessagesSent, got.Halted, want.Supersteps, want.MessagesSent, want.Halted)
				}
				for i := range want.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
						t.Fatalf("%s: vertex %d = %v, reference %v", name, i, got.Values[i], want.Values[i])
					}
				}
			}
		}
	}
}

// TestSuperstepsDoNotAllocate: every buffer of the exchange reaches its size
// in the first supersteps (PageRank sends the same messages every time), so
// seventeen more supersteps allocate nothing that grows with the graph.
func TestSuperstepsDoNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := graphgen.DefaultRMAT.Generate(stats.NewRNG(7), 10)
	allocated := func(steps int) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := New(2).Run(g, PageRank{}, steps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	allocated(3) // goroutine stacks and free lists warm
	b3, n3 := allocated(3)
	b20, n20 := allocated(20)
	// The constant covers what the runtime may allocate on its own account
	// (a goroutine descriptor when the free list ran dry); one superstep of
	// the old exchange allocated megabytes here.
	if b20 > b3+16<<10 || n20 > n3+32 {
		t.Fatalf("20 supersteps allocated %d B in %d objects, 3 supersteps %d B in %d", b20, n20, b3, n3)
	}
}
