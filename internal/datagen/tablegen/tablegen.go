// Package tablegen generates structured (table) data sets. It provides the
// three veracity levels the paper's Table 1 distinguishes for table data:
//
//   - "un-considered": synthetic distributions with fixed ranges that ignore
//     any real data (YCSB/GridMix style) — see standard column generators;
//   - "partially considered": MUDD-style generation (TPC-DS): numeric
//     columns draw from Gaussians moment-matched to the real data, and
//     categorical ones keep the real domain with uniform weights;
//   - "considered": fully profile-driven generation (BigDataBench/BDGS
//     style) where every column samples from a model learned from the real
//     table.
//
// Generation is deterministic per (seed, chunk) and parallelizable without
// changing output.
package tablegen

import (
	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// ColumnGen produces the values of one column. Implementations must be
// stateless with respect to the RNG: the same (g, row, prefix) yields the
// same value.
type ColumnGen interface {
	// Kind returns the data kind this generator emits.
	Kind() data.Kind
	// Gen produces the value for the given absolute row number; prefix is
	// the row's columns to its left, already generated.
	Gen(g *stats.RNG, row int64, prefix data.Row) data.Value
}

// IntColumn samples int64 values from a real-valued distribution (rounded).
type IntColumn struct {
	Dist stats.Distribution
}

// Kind implements ColumnGen.
func (c IntColumn) Kind() data.Kind { return data.KindInt }

// Gen implements ColumnGen.
func (c IntColumn) Gen(g *stats.RNG, _ int64, _ data.Row) data.Value {
	return data.Int(int64(c.Dist.Sample(g)))
}

// FloatColumn samples float64 values from a distribution.
type FloatColumn struct {
	Dist stats.Distribution
}

// Kind implements ColumnGen.
func (c FloatColumn) Kind() data.Kind { return data.KindFloat }

// Gen implements ColumnGen.
func (c FloatColumn) Gen(g *stats.RNG, _ int64, _ data.Row) data.Value {
	return data.Float(c.Dist.Sample(g))
}

// SeqColumn emits the absolute row number plus Start — primary keys.
type SeqColumn struct {
	Start int64
}

// Kind implements ColumnGen.
func (c SeqColumn) Kind() data.Kind { return data.KindInt }

// Gen implements ColumnGen.
func (c SeqColumn) Gen(_ *stats.RNG, row int64, _ data.Row) data.Value {
	return data.Int(c.Start + row)
}

// StringColumn emits random lowercase words.
type StringColumn struct {
	MinLen, MaxLen int
}

// Kind implements ColumnGen.
func (c StringColumn) Kind() data.Kind { return data.KindString }

// Gen implements ColumnGen.
func (c StringColumn) Gen(g *stats.RNG, _ int64, _ data.Row) data.Value {
	return data.String_(g.RandomWord(c.MinLen, c.MaxLen))
}

// CategoryColumn samples from a fixed category list using Sampler (uniform
// when nil).
type CategoryColumn struct {
	Categories []string
	Sampler    stats.IntSampler
}

// Kind implements ColumnGen.
func (c CategoryColumn) Kind() data.Kind { return data.KindString }

// Gen implements ColumnGen.
func (c CategoryColumn) Gen(g *stats.RNG, _ int64, _ data.Row) data.Value {
	if len(c.Categories) == 0 {
		return data.Null()
	}
	var idx int64
	if c.Sampler != nil {
		idx = c.Sampler.Next(g) % int64(len(c.Categories))
	} else {
		idx = int64(g.IntN(len(c.Categories)))
	}
	return data.String_(c.Categories[idx])
}

// BoolColumn emits true with probability P.
type BoolColumn struct {
	P float64
}

// Kind implements ColumnGen.
func (c BoolColumn) Kind() data.Kind { return data.KindBool }

// Gen implements ColumnGen.
func (c BoolColumn) Gen(g *stats.RNG, _ int64, _ data.Row) data.Value { return data.Bool(g.Bool(c.P)) }

// FKColumn emits foreign keys into a table of Count rows, skewed by Sampler
// (uniform when nil).
type FKColumn struct {
	Count   int64
	Sampler stats.IntSampler
}

// Kind implements ColumnGen.
func (c FKColumn) Kind() data.Kind { return data.KindInt }

// Gen implements ColumnGen.
func (c FKColumn) Gen(g *stats.RNG, _ int64, _ data.Row) data.Value {
	if c.Sampler != nil {
		return data.Int(c.Sampler.Next(g) % c.Count)
	}
	return data.Int(g.Int64N(c.Count))
}

// Derived computes a value from the row generated so far; it enables
// correlated columns (e.g. price derived from product id plus noise). The
// framework guarantees columns generate left to right within a row.
type Derived struct {
	KindOf data.Kind
	Fn     func(g *stats.RNG, row int64, prefix data.Row) data.Value
}

// Kind implements ColumnGen.
func (c Derived) Kind() data.Kind { return c.KindOf }

// Gen implements ColumnGen.
func (c Derived) Gen(g *stats.RNG, row int64, prefix data.Row) data.Value {
	return c.Fn(g, row, prefix)
}

// ColumnSpec binds a name to a generator.
type ColumnSpec struct {
	Name string
	Gen  ColumnGen
}

// TableSpec describes one table's shape and generators.
type TableSpec struct {
	Name    string
	Columns []ColumnSpec
	Seed    uint64
	// ChunkSize controls the deterministic chunk boundary (default 4096
	// rows). Output depends only on Seed and ChunkSize, never on worker
	// count.
	ChunkSize int64
}

// Schema returns the data schema the spec generates.
func (s TableSpec) Schema() data.Schema {
	cols := make([]data.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = data.Column{Name: c.Name, Kind: c.Gen.Kind()}
	}
	return data.Schema{Name: s.Name, Cols: cols}
}

func (s TableSpec) chunkSize() int64 {
	if s.ChunkSize > 0 {
		return s.ChunkSize
	}
	return 4096
}

// fillRow fills out, one value per column, with absolute row number row and
// returns it; derived columns see the prefix filled so far. It is the one
// sequence of draws behind a generated table and the "table" corpus.
func (s TableSpec) fillRow(g *stats.RNG, row int64, out data.Row) data.Row {
	for i, c := range s.Columns {
		out[i] = c.Gen.Gen(g, row, out[:i])
	}
	return out
}

// Generate produces rows rows serially.
func (s TableSpec) Generate(rows int64) *data.Table {
	return s.generate(rows, 1)
}

// GenerateParallel produces rows rows using the given worker count; output
// is byte-identical to Generate.
func (s TableSpec) GenerateParallel(rows int64, workers int) *data.Table {
	return s.generate(rows, workers)
}

func (s TableSpec) generate(rows int64, workers int) *data.Table {
	t := data.NewTable(s.Schema())
	if rows <= 0 {
		return t
	}
	out, err := datagen.Generate(s.Seed, datagen.PlanChunks(rows, s.chunkSize()), workers,
		func(g *stats.RNG, c datagen.Chunk, dst []data.Row) error {
			// Every row is a window of one slab per chunk: a row costs no
			// allocation of its own, and no row can grow into its neighbour.
			w := len(s.Columns)
			slab := make([]data.Value, len(dst)*w)
			for i := range dst {
				dst[i] = s.fillRow(g, c.Start+int64(i), slab[i*w:(i+1)*w:(i+1)*w])
			}
			return nil
		})
	if err != nil {
		// Built-in column generators cannot fail; a panicking custom
		// generator surfaces here as the chunk's recovered error.
		panic(err)
	}
	t.Rows = out
	return t
}
