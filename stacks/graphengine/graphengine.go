// Package graphengine is the public facade over bdbench's simulated BSP
// graph stack: a Pregel-style vertex-program engine with superstep
// barriers and message accounting.
package graphengine

import (
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/stacks/graphengine"
)

// Program is a vertex program (compute over incoming messages, send,
// vote-to-halt).
type Program = graphengine.Program

// Vertex is one graph vertex's engine-side state.
type Vertex = graphengine.Vertex

// Context is the per-superstep API handed to programs.
type Context = graphengine.Context

// Result reports a run's values and superstep/message counts.
type Result = graphengine.Result

// Engine executes vertex programs.
type Engine = graphengine.Engine

// New returns an engine with the given worker parallelism.
func New(workers int) *Engine { return graphengine.New(workers) }

// The built-in vertex programs.
type (
	// PageRank ranks vertices by hyperlink structure.
	PageRank = graphengine.PageRank
	// ConnectedComponents labels vertices by component.
	ConnectedComponents = graphengine.ConnectedComponents
)

// Undirected returns the graph with every edge mirrored.
func Undirected(g *graphgen.Graph) *graphgen.Graph { return graphengine.Undirected(g) }
