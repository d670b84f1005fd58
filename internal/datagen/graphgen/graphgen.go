// Package graphgen generates social-network graph data. The paper's volume
// discussion calls out graphs explicitly ("in social network graph
// workloads, the volume is represented by the number of vertices ... e.g.
// 2^20 vertices"), and §5.1 proposes controlling generation velocity by
// "adjusting the efficiency of the data generation algorithms themselves",
// e.g. letting a graph generator consume more memory to generate faster —
// implemented here as the Barabási–Albert generator's memory mode.
//
// Three families span the veracity spectrum: RMAT (Kronecker-style,
// LinkBench/Graph500 shape), BarabasiAlbert (preferential attachment), and
// ErdosRenyi (uniform random, the veracity-unaware baseline).
package graphgen

import (
	"sort"

	"github.com/bdbench/bdbench/internal/stats"
)

// Edge is a directed edge (Src -> Dst).
type Edge struct {
	Src, Dst int64
}

// Graph is an edge-list graph over vertices [0, N).
type Graph struct {
	N     int64
	Edges []Edge
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// Adjacency returns out-neighbour lists for every vertex, each in edge
// order. The lists are rows of one array (a CSR build: count, prefix-sum,
// fill), capped at their length so that appending to one copies it rather
// than writing into the next.
func (g *Graph) Adjacency() [][]int64 {
	// next[v] is where v's row starts, advances as the row fills and ends
	// where the row ends, which is where v+1's starts.
	next := make([]int, g.N+1)
	for _, e := range g.Edges {
		next[e.Src+1]++
	}
	for v := int64(0); v < g.N; v++ {
		next[v+1] += next[v]
	}
	flat := make([]int64, len(g.Edges))
	for _, e := range g.Edges {
		flat[next[e.Src]] = e.Dst
		next[e.Src]++
	}
	adj := make([][]int64, g.N)
	lo := 0
	for v := range adj {
		hi := next[v]
		adj[v] = flat[lo:hi:hi]
		lo = hi
	}
	return adj
}

// ConnectedComponents returns the number of weakly connected components and
// a component label per vertex (union-find).
func (g *Graph) ConnectedComponents() (int, []int64) {
	parent := make([]int64, g.N)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int64) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range g.Edges {
		union(e.Src, e.Dst)
	}
	roots := make(map[int64]int64)
	labels := make([]int64, g.N)
	for i := int64(0); i < g.N; i++ {
		r := find(i)
		if _, ok := roots[r]; !ok {
			roots[r] = int64(len(roots))
		}
		labels[i] = roots[r]
	}
	return len(roots), labels
}

// TopDegreeVertices returns the n vertices with the highest out-degree,
// highest first.
func (g *Graph) TopDegreeVertices(n int) []int64 {
	deg := g.OutDegrees()
	ids := make([]int64, g.N)
	for i := range ids {
		ids[i] = int64(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if int64(n) > g.N {
		n = int(g.N)
	}
	return ids[:n]
}

// RMAT is the recursive-matrix (Kronecker) generator used by Graph500 and
// emulating LinkBench's Facebook-like graphs. A, B, C, D are the quadrant
// probabilities (D is implied: 1-A-B-C); EdgeFactor is edges per vertex.
type RMAT struct {
	A, B, C    float64
	EdgeFactor int
}

// DefaultRMAT uses the Graph500 parameters (0.57, 0.19, 0.19, 0.05) and 16
// edges per vertex.
var DefaultRMAT = RMAT{A: 0.57, B: 0.19, C: 0.19, EdgeFactor: 16}

// Generate emits a graph with 2^scale vertices.
func (r RMAT) Generate(g *stats.RNG, scale int) *Graph {
	if scale < 1 {
		scale = 1
	}
	ef := r.EdgeFactor
	if ef <= 0 {
		ef = 16
	}
	n := int64(1) << uint(scale)
	m := n * int64(ef)
	edges := make([]Edge, 0, m)
	for i := int64(0); i < m; i++ {
		edges = append(edges, r.edge(g, scale))
	}
	return &Graph{N: n, Edges: edges}
}

// edge draws one recursive-matrix edge: every edge is an independent
// sample, which is what makes RMAT chunkable.
func (r RMAT) edge(g *stats.RNG, scale int) Edge {
	var src, dst int64
	for level := scale - 1; level >= 0; level-- {
		u := g.Float64()
		switch {
		case u < r.A:
			// top-left: no bits set
		case u < r.A+r.B:
			dst |= 1 << uint(level)
		case u < r.A+r.B+r.C:
			src |= 1 << uint(level)
		default:
			src |= 1 << uint(level)
			dst |= 1 << uint(level)
		}
	}
	return Edge{Src: src, Dst: dst}
}

// MemoryMode selects the §5.1 speed/memory trade-off of BarabasiAlbert.
type MemoryMode int

// The two modes: MemoryHeavy keeps a repeated-endpoint array giving O(1)
// preferential sampling; MemoryLight re-walks a cumulative degree sum,
// saving memory at the cost of O(V) per edge.
const (
	MemoryHeavy MemoryMode = iota
	MemoryLight
)

// BarabasiAlbert grows a graph by preferential attachment: each new vertex
// attaches M edges to existing vertices with probability proportional to
// their degree, producing the power-law degree distributions of real social
// networks.
type BarabasiAlbert struct {
	M    int
	Mode MemoryMode
}

// Generate emits a graph with 2^scale vertices.
func (b BarabasiAlbert) Generate(g *stats.RNG, scale int) *Graph {
	if scale < 1 {
		scale = 1
	}
	m := b.M
	if m <= 0 {
		m = 4
	}
	n := int64(1) << uint(scale)
	if n <= int64(m) {
		n = int64(m) + 1
	}
	edges := make([]Edge, 0, n*int64(m))
	degree := make([]int64, n)
	// Seed clique among the first m+1 vertices.
	for i := 0; i <= m; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, Edge{Src: int64(i), Dst: int64(j)})
			degree[i]++
			degree[j]++
		}
	}
	var endpoints []int64
	if b.Mode == MemoryHeavy {
		endpoints = make([]int64, 0, 2*int64(len(edges))+2*n*int64(m))
		for _, e := range edges {
			endpoints = append(endpoints, e.Src, e.Dst)
		}
	}
	totalDegree := int64(2 * len(edges))
	targets := make([]int64, 0, m)
	for v := int64(m + 1); v < n; v++ {
		// Targets are collected in draw order (not a map) so the emitted
		// edge list is deterministic for a given seed.
		targets = targets[:0]
		for len(targets) < m {
			var t int64
			if b.Mode == MemoryHeavy {
				t = endpoints[g.Int64N(int64(len(endpoints)))]
			} else {
				// Walk the cumulative degree sum: O(v) but O(1) memory.
				pick := g.Int64N(totalDegree)
				var acc int64
				for u := int64(0); u < v; u++ {
					acc += degree[u]
					if pick < acc {
						t = u
						break
					}
				}
			}
			if t == v || containsInt64(targets, t) {
				continue
			}
			targets = append(targets, t)
		}
		for _, t := range targets {
			edges = append(edges, Edge{Src: v, Dst: t})
			degree[v]++
			degree[t]++
			totalDegree += 2
			if b.Mode == MemoryHeavy {
				endpoints = append(endpoints, v, t)
			}
		}
	}
	return &Graph{N: n, Edges: edges}
}

func containsInt64(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ErdosRenyi emits a uniform random G(n, m) graph — the baseline whose
// degree distribution shares nothing with real social graphs.
type ErdosRenyi struct {
	EdgeFactor int
}

// Generate emits a graph with 2^scale vertices.
func (e ErdosRenyi) Generate(g *stats.RNG, scale int) *Graph {
	if scale < 1 {
		scale = 1
	}
	ef := e.EdgeFactor
	if ef <= 0 {
		ef = 16
	}
	n := int64(1) << uint(scale)
	m := n * int64(ef)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: g.Int64N(n), Dst: g.Int64N(n)}
	}
	return &Graph{N: n, Edges: edges}
}
