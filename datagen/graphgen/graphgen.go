// Package graphgen is the public facade over bdbench's graph generation:
// RMAT (Kronecker-style), Barabási–Albert preferential attachment and
// Erdős–Rényi random graphs.
package graphgen

import "github.com/bdbench/bdbench/internal/datagen/graphgen"

// Graph is an edge-list graph with 2^scale vertices.
type Graph = graphgen.Graph

// Edge is one directed edge.
type Edge = graphgen.Edge

// RMAT generates power-law graphs by recursive quadrant sampling.
type RMAT = graphgen.RMAT

// DefaultRMAT carries the standard Graph500 parameters.
var DefaultRMAT = graphgen.DefaultRMAT

// BarabasiAlbert generates preferential-attachment graphs; Mode trades
// memory for speed.
type BarabasiAlbert = graphgen.BarabasiAlbert

// MemoryMode selects the Barabási–Albert implementation strategy.
type MemoryMode = graphgen.MemoryMode

// The memory modes.
const (
	MemoryHeavy = graphgen.MemoryHeavy
	MemoryLight = graphgen.MemoryLight
)

// ErdosRenyi generates uniform random graphs.
type ErdosRenyi = graphgen.ErdosRenyi
