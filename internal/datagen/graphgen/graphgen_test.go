package graphgen

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/stats"
)

func TestRMATShape(t *testing.T) {
	g := DefaultRMAT.Generate(stats.NewRNG(1), 10)
	if g.N != 1024 {
		t.Fatalf("N = %d, want 1024", g.N)
	}
	if g.NumEdges() != 1024*16 {
		t.Fatalf("edges %d, want %d", g.NumEdges(), 1024*16)
	}
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= g.N || e.Dst < 0 || e.Dst >= g.N {
			t.Fatalf("edge out of range: %+v", e)
		}
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := DefaultRMAT.Generate(stats.NewRNG(2), 12)
	deg := g.OutDegrees()
	maxDeg, sum := 0, 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
		sum += d
	}
	mean := float64(sum) / float64(len(deg))
	// RMAT hubs should be far above the mean degree.
	if float64(maxDeg) < 8*mean {
		t.Fatalf("max degree %d vs mean %.1f: want heavy skew", maxDeg, mean)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := DefaultRMAT.Generate(stats.NewRNG(3), 8)
	b := DefaultRMAT.Generate(stats.NewRNG(3), 8)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestBarabasiAlbertBothModesEquivalentDistribution(t *testing.T) {
	// The §5.1 memory/speed knob trades generation efficiency for memory;
	// both modes implement the same preferential-attachment process, so
	// their degree distributions must agree statistically (exact edge
	// equality is not required — the sampling order differs).
	heavy := BarabasiAlbert{M: 3, Mode: MemoryHeavy}.Generate(stats.NewRNG(4), 10)
	light := BarabasiAlbert{M: 3, Mode: MemoryLight}.Generate(stats.NewRNG(4), 10)
	if len(heavy.Edges) != len(light.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(heavy.Edges), len(light.Edges))
	}
	degs := func(g *Graph) []float64 {
		in := g.InDegrees()
		out := g.OutDegrees()
		v := make([]float64, g.N)
		for i := range v {
			v[i] = float64(in[i] + out[i])
		}
		return v
	}
	ks := stats.KSStatistic(degs(heavy), degs(light))
	if ks > 0.1 {
		t.Fatalf("degree distributions differ between modes: KS = %.3f", ks)
	}
}

func TestBarabasiAlbertModeDeterminism(t *testing.T) {
	for _, mode := range []MemoryMode{MemoryHeavy, MemoryLight} {
		a := BarabasiAlbert{M: 3, Mode: mode}.Generate(stats.NewRNG(44), 8)
		b := BarabasiAlbert{M: 3, Mode: mode}.Generate(stats.NewRNG(44), 8)
		if len(a.Edges) != len(b.Edges) {
			t.Fatalf("mode %v not deterministic (edge count)", mode)
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("mode %v not deterministic at edge %d", mode, i)
			}
		}
	}
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	g := BarabasiAlbert{M: 4}.Generate(stats.NewRNG(5), 11)
	// Every non-seed vertex has out-degree exactly M.
	out := g.OutDegrees()
	for v := 5; v < len(out); v++ {
		if out[v] != 4 {
			t.Fatalf("vertex %d out-degree %d, want 4", v, out[v])
		}
	}
	// Total degree (in+out) should be heavy-tailed: compare the max total
	// degree to the mean.
	in := g.InDegrees()
	maxTot, sum := 0, 0
	for i := range out {
		tot := out[i] + in[i]
		sum += tot
		if tot > maxTot {
			maxTot = tot
		}
	}
	mean := float64(sum) / float64(len(out))
	if float64(maxTot) < 5*mean {
		t.Fatalf("max degree %d vs mean %.1f: want preferential-attachment hubs", maxTot, mean)
	}
}

func TestBarabasiAlbertNoSelfLoopsOrDupTargets(t *testing.T) {
	g := BarabasiAlbert{M: 3}.Generate(stats.NewRNG(6), 8)
	seen := map[Edge]bool{}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatalf("self loop at %d", e.Src)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %+v", e)
		}
		seen[e] = true
	}
}

func TestErdosRenyiUniformity(t *testing.T) {
	g := ErdosRenyi{EdgeFactor: 8}.Generate(stats.NewRNG(7), 10)
	if g.NumEdges() != 1024*8 {
		t.Fatalf("edges %d", g.NumEdges())
	}
	deg := g.OutDegrees()
	var s stats.Summary
	for _, d := range deg {
		s.Observe(float64(d))
	}
	// Poisson(8): stddev ~2.83, far from power-law.
	if s.StdDev() > 2*math.Sqrt(8) {
		t.Fatalf("ER degree stddev %.2f, want near Poisson", s.StdDev())
	}
}

func TestConnectedComponents(t *testing.T) {
	g := &Graph{N: 6, Edges: []Edge{{0, 1}, {1, 2}, {3, 4}}}
	n, labels := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("components %d, want 3 (012, 34, 5)", n)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("0-1-2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Fatal("3-4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("5 should be isolated")
	}
}

func TestConnectedComponentsFullyConnectedBA(t *testing.T) {
	g := BarabasiAlbert{M: 2}.Generate(stats.NewRNG(9), 8)
	n, _ := g.ConnectedComponents()
	if n != 1 {
		t.Fatalf("BA graph should be connected, got %d components", n)
	}
}

func TestTopDegreeVertices(t *testing.T) {
	g := &Graph{N: 4, Edges: []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}}}
	top := g.TopDegreeVertices(2)
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Fatalf("top = %v, want [0 1]", top)
	}
	all := g.TopDegreeVertices(100)
	if len(all) != 4 {
		t.Fatalf("clamped top length %d, want 4", len(all))
	}
}

func TestAdjacency(t *testing.T) {
	g := &Graph{N: 4, Edges: []Edge{{2, 0}, {0, 2}, {0, 1}, {3, 3}, {0, 2}}}
	adj := g.Adjacency()
	want := [][]int64{{2, 1, 2}, {}, {0}, {3}}
	if len(adj) != len(want) {
		t.Fatalf("adjacency %v", adj)
	}
	for v, row := range want {
		if !slices.Equal(adj[v], row) {
			t.Fatalf("row %d = %v, want %v (edge order)", v, adj[v], row)
		}
	}
	// Rows share one array: growing one must not write into its neighbour.
	_ = append(adj[0], 99)
	if adj[2][0] != 0 {
		t.Fatalf("append to row 0 overwrote row 2: %v", adj)
	}
}

func TestScaleClamp(t *testing.T) {
	// scale < 1 clamps rather than panicking.
	for _, gen := range []interface {
		Generate(*stats.RNG, int) *Graph
	}{DefaultRMAT, BarabasiAlbert{M: 1}, ErdosRenyi{}} {
		g := gen.Generate(stats.NewRNG(10), 0)
		if g.N < 2 {
			t.Fatalf("%T: N = %d", gen, g.N)
		}
	}
}

func TestQuickEdgesInRange(t *testing.T) {
	f := func(seed uint64, s uint8) bool {
		scale := int(s%6) + 2
		g := DefaultRMAT.Generate(stats.NewRNG(seed), scale)
		for _, e := range g.Edges {
			if e.Src < 0 || e.Src >= g.N || e.Dst < 0 || e.Dst >= g.N {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
