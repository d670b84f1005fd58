package graphengine

import (
	"math"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chain returns 0 -> 1 -> 2 -> ... -> n-1.
func chain(n int64) *graphgen.Graph {
	g := &graphgen.Graph{N: n}
	for i := int64(0); i+1 < n; i++ {
		g.Edges = append(g.Edges, graphgen.Edge{Src: i, Dst: i + 1})
	}
	return g
}

func TestPageRankStar(t *testing.T) {
	// Star: every leaf points at vertex 0; 0 points nowhere. Vertex 0 must
	// end with the highest rank.
	g := &graphgen.Graph{N: 6}
	for i := int64(1); i < 6; i++ {
		g.Edges = append(g.Edges, graphgen.Edge{Src: i, Dst: 0})
	}
	e := New(4)
	res, err := e.Run(g, PageRank{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i < 6; i++ {
		if res.Values[0] <= res.Values[i] {
			t.Fatalf("hub rank %.3f not above leaf %d rank %.3f", res.Values[0], i, res.Values[i])
		}
	}
	if res.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := graphgen.DefaultRMAT.Generate(stats.NewRNG(1), 7)
	e := New(4)
	// Superstep 0 only scatters the initial value, so N+1 supersteps
	// perform N rank-update rounds.
	res, err := e.Run(g, PageRank{}, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Independent dense power iteration for reference.
	n := int(g.N)
	adj := g.Adjacency()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1
	}
	for it := 0; it < 30; it++ {
		for i := range next {
			next[i] = 0.15
		}
		for v := 0; v < n; v++ {
			if len(adj[v]) == 0 {
				continue
			}
			share := 0.85 * rank[v] / float64(len(adj[v]))
			for _, d := range adj[v] {
				next[d] += share
			}
		}
		rank, next = next, rank
	}
	for i := 0; i < n; i++ {
		if math.Abs(res.Values[i]-rank[i]) > 1e-6 {
			t.Fatalf("vertex %d: engine %.8f vs reference %.8f", i, res.Values[i], rank[i])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}.
	g := &graphgen.Graph{N: 5, Edges: []graphgen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}}
	e := New(2)
	res, err := e.Run(Undirected(g), ConnectedComponents{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("CC should converge and halt")
	}
	if res.Values[0] != 0 || res.Values[1] != 0 || res.Values[2] != 0 {
		t.Fatalf("component A labels %v", res.Values[:3])
	}
	if res.Values[3] != 3 || res.Values[4] != 3 {
		t.Fatalf("component B labels %v", res.Values[3:])
	}
}

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	g := graphgen.BarabasiAlbert{M: 2}.Generate(stats.NewRNG(2), 8)
	und := Undirected(g)
	e := New(4)
	res, err := e.Run(und, ConnectedComponents{}, 200)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, _ := und.ConnectedComponents()
	gotLabels := map[float64]bool{}
	for _, v := range res.Values {
		gotLabels[v] = true
	}
	if len(gotLabels) != wantCount {
		t.Fatalf("engine found %d components, union-find %d", len(gotLabels), wantCount)
	}
}

func TestSSSPChain(t *testing.T) {
	g := chain(6)
	e := New(2)
	res, err := e.Run(g, SSSP{Source: 0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if res.Values[i] != float64(i) {
			t.Fatalf("dist[%d] = %v, want %d", i, res.Values[i], i)
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := &graphgen.Graph{N: 3, Edges: []graphgen.Edge{{Src: 0, Dst: 1}}}
	e := New(1)
	res, err := e.Run(g, SSSP{Source: 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Values[2], 1) {
		t.Fatalf("unreachable vertex distance %v", res.Values[2])
	}
}

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	g := graphgen.DefaultRMAT.Generate(stats.NewRNG(3), 8)
	a, err := New(1).Run(g, PageRank{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(8).Run(g, PageRank{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("vertex %d differs across worker counts: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	e := New(1)
	if _, err := e.Run(&graphgen.Graph{}, PageRank{}, 5); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestMaxSuperstepsBounds(t *testing.T) {
	g := chain(10)
	e := New(2)
	res, err := e.Run(g, PageRank{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 3 {
		t.Fatalf("supersteps %d, want 3", res.Supersteps)
	}
	if res.Halted {
		t.Fatal("PageRank should not report convergence-halt")
	}
}

func TestUndirectedDoublesEdges(t *testing.T) {
	g := chain(4)
	u := Undirected(g)
	if len(u.Edges) != 2*len(g.Edges) {
		t.Fatalf("edges %d, want %d", len(u.Edges), 2*len(g.Edges))
	}
}
