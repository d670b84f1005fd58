package tablegen

import (
	"fmt"
	"math"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/stats"
)

// This file implements Figure 3 step 2 for table data: "each data generator
// employs a data model to capture and preserve the important characteristics
// in one or multiple real data sets". Profiles are the learned models;
// ProfiledColumn samples from them.

// NumericProfile is a histogram model of a numeric column.
type NumericProfile struct {
	Hist *stats.Histogram
	Mean float64
	Std  float64
	Min  float64
	Max  float64

	alias *stats.Alias // lazily built bin sampler
}

// LearnNumeric fits a histogram model with the given bin count to a numeric
// column (ints and floats; nulls skipped). It returns an error if the column
// has no non-null numeric values.
func LearnNumeric(col []data.Value, bins int) (*NumericProfile, error) {
	var sum stats.Summary
	for _, v := range col {
		if v.IsNull() {
			continue
		}
		switch v.Kind() {
		case data.KindInt, data.KindFloat:
			sum.Observe(v.Float())
		}
	}
	if sum.Count() == 0 {
		return nil, fmt.Errorf("tablegen: no numeric values to learn from")
	}
	lo, hi := sum.Min(), sum.Max()
	if hi <= lo {
		hi = lo + 1
	}
	h := stats.NewHistogram(lo, hi+1e-9, bins)
	for _, v := range col {
		if v.IsNull() {
			continue
		}
		switch v.Kind() {
		case data.KindInt, data.KindFloat:
			h.Observe(v.Float())
		}
	}
	p := &NumericProfile{Hist: h, Mean: sum.Mean(), Std: sum.StdDev(), Min: lo, Max: hi}
	// Build the bin sampler eagerly so Sample is safe for the concurrent
	// chunk workers of GenerateParallel.
	p.alias = stats.NewAlias(h.Probabilities())
	return p, nil
}

// Sample draws from the histogram: a bin by mass, then uniform within it.
func (p *NumericProfile) Sample(g *stats.RNG) float64 {
	bin := p.alias.Sample(g)
	width := (p.Hist.Max - p.Hist.Min) / float64(len(p.Hist.Counts))
	return p.Hist.Min + (float64(bin)+g.Float64())*width
}

// CategoryProfile is a frequency model of a categorical (string) column.
type CategoryProfile struct {
	Values  []string
	Weights []float64
}

// LearnCategory fits a frequency model to a string column (nulls skipped).
func LearnCategory(col []data.Value) (*CategoryProfile, error) {
	ft := stats.NewFreqTable()
	for _, v := range col {
		if v.Kind() == data.KindString {
			ft.Observe(v.Str())
		}
	}
	if ft.Total() == 0 {
		return nil, fmt.Errorf("tablegen: no string values to learn from")
	}
	values := ft.TopK(ft.Distinct())
	weights := make([]float64, len(values))
	for i, v := range values {
		weights[i] = float64(ft.Counts[v])
	}
	return &CategoryProfile{Values: values, Weights: weights}, nil
}

// ProfiledNumericColumn samples a numeric column from a learned profile —
// the "considered" veracity level.
type ProfiledNumericColumn struct {
	Profile *NumericProfile
	AsInt   bool
}

// Kind implements ColumnGen.
func (c ProfiledNumericColumn) Kind() data.Kind {
	if c.AsInt {
		return data.KindInt
	}
	return data.KindFloat
}

// Gen implements ColumnGen.
func (c ProfiledNumericColumn) Gen(g *stats.RNG, _ int64) data.Value {
	v := c.Profile.Sample(g)
	if c.AsInt {
		return data.Int(int64(math.Round(v)))
	}
	return data.Float(v)
}

// ProfiledCategoryColumn samples a categorical column from learned
// frequencies. Construct with NewProfiledCategoryColumn so the sampler is
// built eagerly (concurrent Gen calls are then race-free).
type ProfiledCategoryColumn struct {
	Profile *CategoryProfile
	alias   *stats.Alias
}

// NewProfiledCategoryColumn builds the column generator for a learned
// category profile.
func NewProfiledCategoryColumn(p *CategoryProfile) *ProfiledCategoryColumn {
	return &ProfiledCategoryColumn{Profile: p, alias: stats.NewAlias(p.Weights)}
}

// Kind implements ColumnGen.
func (c *ProfiledCategoryColumn) Kind() data.Kind { return data.KindString }

// Gen implements ColumnGen.
func (c *ProfiledCategoryColumn) Gen(g *stats.RNG, _ int64) data.Value {
	return data.String_(c.Profile.Values[c.alias.Sample(g)])
}

// MomentMatchedColumn is the MUDD-style "traditional synthetic distribution":
// a Gaussian matched to the real column's mean and standard deviation. It
// preserves first and second moments but not distribution shape — the
// "partially considered" veracity level.
type MomentMatchedColumn struct {
	Mean, Std float64
	AsInt     bool
}

// Kind implements ColumnGen.
func (c MomentMatchedColumn) Kind() data.Kind {
	if c.AsInt {
		return data.KindInt
	}
	return data.KindFloat
}

// Gen implements ColumnGen.
func (c MomentMatchedColumn) Gen(g *stats.RNG, _ int64) data.Value {
	v := c.Mean + c.Std*g.NormFloat64()
	if c.AsInt {
		return data.Int(int64(math.Round(v)))
	}
	return data.Float(v)
}

// VeracityLevel labels how much a generated table's columns learned from
// real data, mirroring Table 1's veracity axis.
type VeracityLevel string

// The three levels of Table 1.
const (
	VeracityNone    VeracityLevel = "un-considered"
	VeracityPartial VeracityLevel = "partially-considered"
	VeracityFull    VeracityLevel = "considered"
)

// BuildSpec derives a TableSpec from a real table at the requested veracity
// level, emulating the three generator families the paper surveys:
//
//   - VeracityNone: fixed-range uniform/random generators that ignore the
//     real data entirely;
//   - VeracityPartial (MUDD): moment-matched Gaussians for numeric columns
//     and uniform choice over observed categories, except columns listed in
//     realistic, which get full learned profiles ("a small portion of
//     crucial data sets using more realistic distributions");
//   - VeracityFull (BDGS): learned profiles for every column.
func BuildSpec(real *data.Table, level VeracityLevel, realistic map[string]bool, bins int, seed uint64) (TableSpec, error) {
	if bins <= 0 {
		bins = 32
	}
	spec := TableSpec{Name: real.Schema.Name + "_syn", Seed: seed}
	for _, col := range real.Schema.Cols {
		vals, err := real.Col(col.Name)
		if err != nil {
			return TableSpec{}, err
		}
		gen, err := columnGenFor(col, vals, level, realistic[col.Name], bins)
		if err != nil {
			return TableSpec{}, fmt.Errorf("tablegen: column %q: %w", col.Name, err)
		}
		spec.Columns = append(spec.Columns, ColumnSpec{Name: col.Name, Gen: gen})
	}
	return spec, nil
}

func columnGenFor(col data.Column, vals []data.Value, level VeracityLevel, realistic bool, bins int) (ColumnGen, error) {
	switch col.Kind {
	case data.KindInt, data.KindFloat:
		asInt := col.Kind == data.KindInt
		if level == VeracityFull || (level == VeracityPartial && realistic) {
			p, err := LearnNumeric(vals, bins)
			if err != nil {
				return nil, err
			}
			return ProfiledNumericColumn{Profile: p, AsInt: asInt}, nil
		}
		if level == VeracityPartial {
			var sum stats.Summary
			for _, v := range vals {
				if !v.IsNull() {
					sum.Observe(v.Float())
				}
			}
			return MomentMatchedColumn{Mean: sum.Mean(), Std: sum.StdDev(), AsInt: asInt}, nil
		}
		// VeracityNone: fixed range ignoring data.
		if asInt {
			return IntColumn{Dist: stats.Uniform{Min: 0, Max: 1e6}}, nil
		}
		return FloatColumn{Dist: stats.Uniform{Min: 0, Max: 1e6}}, nil
	case data.KindString:
		if level == VeracityFull || (level == VeracityPartial && realistic) {
			p, err := LearnCategory(vals)
			if err != nil {
				return nil, err
			}
			return NewProfiledCategoryColumn(p), nil
		}
		if level == VeracityPartial {
			// Observed categories, uniform weights: domain preserved,
			// frequencies lost.
			p, err := LearnCategory(vals)
			if err != nil {
				return nil, err
			}
			return CategoryColumn{Categories: p.Values}, nil
		}
		return StringColumn{MinLen: 4, MaxLen: 12}, nil
	case data.KindBool:
		if level == VeracityNone {
			return BoolColumn{P: 0.5}, nil
		}
		trues, total := 0, 0
		for _, v := range vals {
			if v.Kind() == data.KindBool {
				total++
				if v.Bool() {
					trues++
				}
			}
		}
		p := 0.5
		if total > 0 {
			p = float64(trues) / float64(total)
		}
		return BoolColumn{P: p}, nil
	default:
		return nil, fmt.Errorf("unsupported kind %v", col.Kind)
	}
}
