package tablegen

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/stats"
)

func simpleSpec(seed uint64) TableSpec {
	return TableSpec{
		Name: "t",
		Seed: seed,
		Columns: []ColumnSpec{
			{Name: "id", Gen: SeqColumn{Start: 0}},
			{Name: "v", Gen: FloatColumn{Dist: stats.Uniform{Min: 4, Max: 16}}},
			{Name: "cat", Gen: CategoryColumn{Categories: []string{"a", "b", "c"}}},
			{Name: "flag", Gen: BoolColumn{P: 0.5}},
		},
	}
}

func TestGenerateShapeAndSchema(t *testing.T) {
	spec := simpleSpec(1)
	tab := spec.Generate(100)
	if tab.NumRows() != 100 {
		t.Fatalf("rows %d, want 100", tab.NumRows())
	}
	if tab.Schema.Name != "t" || len(tab.Schema.Cols) != 4 {
		t.Fatalf("schema %v", tab.Schema)
	}
	for _, r := range tab.Rows {
		if err := tab.Schema.Validate(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSeqColumnIsRowNumber(t *testing.T) {
	tab := simpleSpec(1).Generate(10)
	for i, r := range tab.Rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d id = %d", i, r[0].Int())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := simpleSpec(7).Generate(500)
	b := simpleSpec(7).Generate(500)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if data.Compare(a.Rows[i][j], b.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

func TestGenerateParallelMatchesSerial(t *testing.T) {
	spec := simpleSpec(9)
	spec.ChunkSize = 64
	serial := spec.Generate(1000)
	parallel := spec.GenerateParallel(1000, 8)
	if serial.NumRows() != parallel.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", serial.NumRows(), parallel.NumRows())
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if data.Compare(serial.Rows[i][j], parallel.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d differs between serial and parallel", i, j)
			}
		}
	}
}

func TestGenerateZeroRows(t *testing.T) {
	tab := simpleSpec(1).Generate(0)
	if tab.NumRows() != 0 {
		t.Fatal("zero rows requested, got rows")
	}
}

func TestDerivedColumnSeesPrefix(t *testing.T) {
	spec := TableSpec{
		Name: "d",
		Seed: 4,
		Columns: []ColumnSpec{
			{Name: "a", Gen: SeqColumn{}},
			{Name: "double_a", Gen: Derived{
				KindOf: data.KindInt,
				Fn: func(_ *stats.RNG, _ int64, prefix data.Row) data.Value {
					return data.Int(prefix[0].Int() * 2)
				},
			}},
		},
	}
	tab := spec.Generate(50)
	for _, r := range tab.Rows {
		if r[1].Int() != r[0].Int()*2 {
			t.Fatalf("derived column wrong: %v", r)
		}
	}
}

// TestDerivedGenSeesPrefix: Derived's prefix reaches it through the
// ColumnGen interface itself, not through a special case in the table loop.
func TestDerivedGenSeesPrefix(t *testing.T) {
	var gen ColumnGen = Derived{
		KindOf: data.KindInt,
		Fn: func(_ *stats.RNG, row int64, prefix data.Row) data.Value {
			return data.Int(prefix[0].Int() + row)
		},
	}
	if v := gen.Gen(stats.NewRNG(1), 3, data.Row{data.Int(40)}); v.Int() != 43 {
		t.Fatalf("derived column through ColumnGen: got %v, want 43", v)
	}
}

func TestFKColumnRange(t *testing.T) {
	spec := TableSpec{
		Name:    "fk",
		Seed:    5,
		Columns: []ColumnSpec{{Name: "ref", Gen: FKColumn{Count: 17}}},
	}
	tab := spec.Generate(2000)
	for _, r := range tab.Rows {
		if v := r[0].Int(); v < 0 || v >= 17 {
			t.Fatalf("fk value %d out of range", v)
		}
	}
}

func TestCategoryColumnEmpty(t *testing.T) {
	g := stats.NewRNG(1)
	v := CategoryColumn{}.Gen(g, 0, nil)
	if !v.IsNull() {
		t.Fatal("empty category list should emit null")
	}
}

func TestReferenceTableShape(t *testing.T) {
	tab := ReferenceTable(11, 2000)
	if tab.NumRows() != 2000 {
		t.Fatalf("rows %d", tab.NumRows())
	}
	// Price must be positive and correlated with product (same product ->
	// prices within noise band).
	prices := map[int64][]float64{}
	for _, r := range tab.Rows {
		p := r[4].Float()
		if p <= 0 {
			t.Fatalf("non-positive price %v", p)
		}
		pid := r[2].Int()
		prices[pid] = append(prices[pid], p)
	}
	for pid, ps := range prices {
		if len(ps) < 20 {
			continue
		}
		var s stats.Summary
		for _, p := range ps {
			s.Observe(p)
		}
		if s.StdDev()/s.Mean() > 0.2 {
			t.Fatalf("product %d price dispersion too high: cv=%.3f", pid, s.StdDev()/s.Mean())
		}
	}
	// Customer skew: top customer should appear much more than 1/10000.
	ft := stats.NewFreqTable()
	for _, r := range tab.Rows {
		ft.Observe(r[1].String())
	}
	top := ft.TopK(1)
	if ft.Counts[top[0]] < 20 {
		t.Fatalf("top customer count %d, want heavy zipf skew", ft.Counts[top[0]])
	}
}

func TestLearnNumericProfile(t *testing.T) {
	real := ReferenceTable(21, 3000)
	col, err := real.Col("price")
	if err != nil {
		t.Fatal(err)
	}
	p, err := LearnNumeric(col)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean <= 0 || p.Std <= 0 {
		t.Fatalf("degenerate profile: %+v", p)
	}
	g := stats.NewRNG(22)
	var s stats.Summary
	for i := 0; i < 20000; i++ {
		s.Observe(p.Sample(g))
	}
	if math.Abs(s.Mean()-p.Mean)/p.Mean > 0.05 {
		t.Fatalf("profile sample mean %.2f, want ~%.2f", s.Mean(), p.Mean)
	}
}

func TestLearnNumericErrors(t *testing.T) {
	if _, err := LearnNumeric([]data.Value{data.String_("x")}); err == nil {
		t.Fatal("non-numeric column accepted")
	}
	if _, err := LearnNumeric(nil); err == nil {
		t.Fatal("empty column accepted")
	}
	// Constant column must not panic (degenerate range).
	p, err := LearnNumeric([]data.Value{data.Int(5), data.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	v := p.Sample(stats.NewRNG(1))
	if v < 4 || v > 7 {
		t.Fatalf("constant-column sample %v far from 5", v)
	}
}

func TestLearnCategoryProfile(t *testing.T) {
	col := []data.Value{
		data.String_("x"), data.String_("x"), data.String_("x"),
		data.String_("y"), data.Null(),
	}
	p, err := LearnCategory(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 2 || p.Values[0] != "x" {
		t.Fatalf("profile %+v", p)
	}
	gen := NewProfiledCategoryColumn(p)
	g := stats.NewRNG(23)
	xs := 0
	for i := 0; i < 10000; i++ {
		if gen.Gen(g, 0, nil).Str() == "x" {
			xs++
		}
	}
	frac := float64(xs) / 10000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("x fraction %.3f, want ~0.75", frac)
	}
}

func TestLearnCategoryErrors(t *testing.T) {
	if _, err := LearnCategory([]data.Value{data.Int(1)}); err == nil {
		t.Fatal("non-string column accepted")
	}
}

func TestBuildSpecVeracityLevels(t *testing.T) {
	real := ReferenceTable(31, 3000)
	for _, level := range []VeracityLevel{VeracityNone, VeracityPartial, VeracityFull} {
		spec, err := BuildSpec(real, level, 99)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		syn := spec.Generate(1000)
		if syn.NumRows() != 1000 {
			t.Fatalf("%s: rows %d", level, syn.NumRows())
		}
		if len(syn.Schema.Cols) != len(real.Schema.Cols) {
			t.Fatalf("%s: schema arity mismatch", level)
		}
	}
}

func TestVeracityLevelsOrderedByDivergence(t *testing.T) {
	// The central tablegen claim: higher veracity levels produce synthetic
	// region columns closer (in total variation) to the real distribution.
	real := ReferenceTable(41, 5000)
	realCol, _ := real.Col("region")
	realFT := stats.NewFreqTable()
	for _, v := range realCol {
		realFT.Observe(v.Str())
	}
	tv := func(level VeracityLevel) float64 {
		spec, err := BuildSpec(real, level, 55)
		if err != nil {
			t.Fatal(err)
		}
		syn := spec.Generate(5000)
		synCol, _ := syn.Col("region")
		synFT := stats.NewFreqTable()
		for _, v := range synCol {
			if v.Kind() == data.KindString {
				synFT.Observe(v.Str())
			}
		}
		p, q := stats.AlignedProbabilities(realFT, synFT)
		d, err := stats.TotalVariation(p, q)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	none, partial, full := tv(VeracityNone), tv(VeracityPartial), tv(VeracityFull)
	if !(full < partial && partial < none) {
		t.Fatalf("divergence ordering violated: full=%.4f partial=%.4f none=%.4f", full, partial, none)
	}
}

func TestBuildSpecUnsupportedKind(t *testing.T) {
	tab := data.NewTable(data.Schema{Name: "weird", Cols: []data.Column{{Name: "n", Kind: data.KindNull}}})
	tab.Rows = append(tab.Rows, data.Row{data.Null()})
	if _, err := BuildSpec(tab, VeracityFull, 1); err == nil {
		t.Fatal("null-kind column accepted")
	}
}

func TestQuickGenerateRowCount(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rows := int64(n % 2000)
		tab := simpleSpec(seed).Generate(rows)
		return int64(tab.NumRows()) == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildSpecRowsPinned holds the rows a learned spec generates at each
// veracity level to digests; every float is written in its shortest
// round-trip form, so a moved last bit moves the digest.
func TestBuildSpecRowsPinned(t *testing.T) {
	real := ReferenceTable(31, 3000)
	want := map[VeracityLevel]uint64{
		VeracityNone:    0xd5414e33a87437b6,
		VeracityPartial: 0xc5a5168d6b8a3b77,
		VeracityFull:    0x1b4560bbcff53d70,
	}
	for _, level := range []VeracityLevel{VeracityNone, VeracityPartial, VeracityFull} {
		spec, err := BuildSpec(real, level, 99)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		h := fnv.New64a()
		var buf []byte
		for _, row := range spec.Generate(1000).Rows {
			buf = buf[:0]
			for _, v := range row {
				buf = append(v.AppendText(buf), 0)
			}
			h.Write(append(buf, '\n'))
		}
		if got := h.Sum64(); got != want[level] {
			t.Errorf("%s: rows moved: digest %#x, want %#x", level, got, want[level])
		}
	}
}
