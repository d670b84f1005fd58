package graphgen

import (
	"strconv"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// chunkEdges is the edge count per generation chunk.
const chunkEdges = 1 << 16

// GenerateParallel emits a graph with about 2^scale vertices across a
// bounded worker pool; the edge list is identical at any worker count. The
// families whose edges are independent samples offer it — RMAT (every
// recursive-matrix draw is independent) and ErdosRenyi. BarabasiAlbert is
// inherently sequential — every new edge's distribution depends on all
// previous edges (preferential attachment) — so it stays on the single-RNG
// path.
func (r RMAT) GenerateParallel(seed uint64, scale, workers int) *Graph {
	if scale < 1 {
		scale = 1
	}
	ef := r.EdgeFactor
	if ef <= 0 {
		ef = 16
	}
	n := int64(1) << uint(scale)
	edges, err := datagen.Generate(seed, datagen.PlanChunks(n*int64(ef), chunkEdges), workers,
		func(g *stats.RNG, _ datagen.Chunk, dst []Edge) error {
			for i := range dst {
				dst[i] = r.edge(g, scale)
			}
			return nil
		})
	if err != nil {
		// Edge sampling cannot fail by construction.
		panic(err)
	}
	return &Graph{N: n, Edges: edges}
}

// corpusScaleOffset maps the corpus scale knob to the RMAT vertex scale:
// scale 1 is 2^11 vertices.
const corpusScaleOffset = 10

// GraphCorpus adapts DefaultRMAT to the datagen.Chunked corpus contract: a
// graph of 2^(scale+corpusScaleOffset) vertices rendered as one
// "src<TAB>dst" line per edge.
type GraphCorpus struct{}

// Name implements datagen.Chunked.
func (GraphCorpus) Name() string { return "graph" }

func vertexScale(scale int) int {
	if scale < 1 {
		scale = 1
	}
	return scale + corpusScaleOffset
}

// Plan implements datagen.Chunked.
func (GraphCorpus) Plan(scale int) []datagen.Chunk {
	n := int64(1) << uint(vertexScale(scale))
	return datagen.PlanChunks(n*int64(DefaultRMAT.EdgeFactor), chunkEdges)
}

// AppendChunk implements datagen.Chunked.
func (GraphCorpus) AppendChunk(dst []byte, g *stats.RNG, scale int, c datagen.Chunk) ([]byte, error) {
	vs := vertexScale(scale)
	for i := c.Start; i < c.End; i++ {
		e := DefaultRMAT.edge(g, vs)
		dst = append(strconv.AppendInt(dst, e.Src, 10), '\t')
		dst = append(strconv.AppendInt(dst, e.Dst, 10), '\n')
	}
	return dst, nil
}
