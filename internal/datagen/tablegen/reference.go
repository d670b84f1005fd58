package tablegen

import (
	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/stats"
)

// ReferenceSpec returns the hidden "real" sales table used by bdbench's
// veracity experiments: an e-commerce orders table with a zipf-skewed
// customer distribution, correlated product/price columns and weighted
// regions. As with the text reference corpus, the generating process stands
// in for real data the benchmark cannot ship; generators under test see only
// the emitted rows.
func ReferenceSpec(seed uint64) TableSpec {
	regions := []string{"na", "eu", "apac", "latam", "mea"}
	regionWeights := []float64{0.38, 0.27, 0.22, 0.08, 0.05}
	const products = 500
	return TableSpec{
		Name: "orders",
		Seed: seed,
		Columns: []ColumnSpec{
			{Name: "order_id", Gen: SeqColumn{Start: 1}},
			{Name: "customer_id", Gen: FKColumn{Count: 10000, Sampler: stats.ScrambledZipf{Count: 10000, S: 1.2}}},
			{Name: "product_id", Gen: FKColumn{Count: products, Sampler: stats.Zipf{Count: products, S: 1.1}}},
			{Name: "quantity", Gen: IntColumn{Dist: shiftedPoisson{lambda: 2, shift: 1}}},
			{Name: "price", Gen: Derived{
				KindOf: data.KindFloat,
				Fn: func(g *stats.RNG, _ int64, prefix data.Row) data.Value {
					product := prefix[2].Int()
					base := 5 + float64(stats.Mix64(uint64(product))%20000)/100 // 5.00 .. 204.99
					return data.Float(base * (1 + 0.05*g.NormFloat64()))
				},
			}},
			{Name: "region", Gen: CategoryColumn{
				Categories: regions,
				Sampler:    stats.NewCategorical(regionWeights),
			}},
			{Name: "express", Gen: BoolColumn{P: 0.2}},
		},
	}
}

// ReferenceTable generates rows rows of the hidden reference table.
func ReferenceTable(seed uint64, rows int64) *data.Table {
	return ReferenceSpec(seed).Generate(rows)
}

// shiftedPoisson is Poisson(lambda) + shift, for strictly positive counts.
type shiftedPoisson struct {
	lambda float64
	shift  float64
}

func (s shiftedPoisson) Sample(g *stats.RNG) float64 {
	return stats.Poisson{Lambda: s.lambda}.Sample(g) + s.shift
}
