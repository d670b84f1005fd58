package formats

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/stats"
)

func sampleTable(t *testing.T) *data.Table {
	t.Helper()
	schema := data.Schema{Name: "s", Cols: []data.Column{
		{Name: "id", Kind: data.KindInt},
		{Name: "score", Kind: data.KindFloat},
		{Name: "name", Kind: data.KindString},
		{Name: "ok", Kind: data.KindBool},
	}}
	tab := data.NewTable(schema)
	rows := []data.Row{
		{data.Int(1), data.Float(1.5), data.String_("alpha"), data.Bool(true)},
		{data.Int(2), data.Null(), data.String_("beta,with,commas"), data.Bool(false)},
		{data.Null(), data.Float(-3.25), data.String_("tab\there"), data.Null()},
	}
	for _, r := range rows {
		if err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func tablesEqual(t *testing.T, a, b *data.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts %d vs %d", a.NumRows(), b.NumRows())
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x.IsNull() && y.IsNull() {
				continue
			}
			if data.Compare(x, y) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, x, y)
			}
		}
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	tab := sampleTable(t)
	for _, f := range []Format{CSV, TSV, JSONL} {
		var buf bytes.Buffer
		if err := WriteTable(&buf, tab, f); err != nil {
			t.Fatalf("%s write: %v", f, err)
		}
		got, err := ReadTable(&buf, tab.Schema, f)
		if err != nil {
			t.Fatalf("%s read: %v", f, err)
		}
		tablesEqual(t, tab, got)
	}
}

func TestRoundTripGeneratedTable(t *testing.T) {
	tab := tablegen.ReferenceTable(1, 500)
	for _, f := range []Format{CSV, TSV, JSONL} {
		var buf bytes.Buffer
		if err := WriteTable(&buf, tab, f); err != nil {
			t.Fatalf("%s write: %v", f, err)
		}
		got, err := ReadTable(&buf, tab.Schema, f)
		if err != nil {
			t.Fatalf("%s read: %v", f, err)
		}
		if got.NumRows() != 500 {
			t.Fatalf("%s: rows %d", f, got.NumRows())
		}
		// Floats survive exactly thanks to %g round-trip formatting.
		tablesEqual(t, tab, got)
	}
}

func TestUnknownFormat(t *testing.T) {
	tab := sampleTable(t)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab, Format("xml")); err == nil {
		t.Fatal("unknown write format accepted")
	}
	if _, err := ReadTable(&buf, tab.Schema, Format("xml")); err == nil {
		t.Fatal("unknown read format accepted")
	}
}

func TestReadSeparatedHeaderMismatch(t *testing.T) {
	schema := data.Schema{Name: "s", Cols: []data.Column{{Name: "a", Kind: data.KindInt}}}
	if _, err := ReadTable(strings.NewReader("b\n1\n"), schema, CSV); err == nil {
		t.Fatal("wrong header accepted")
	}
}

func TestReadSeparatedBadValue(t *testing.T) {
	schema := data.Schema{Name: "s", Cols: []data.Column{{Name: "a", Kind: data.KindInt}}}
	if _, err := ReadTable(strings.NewReader("a\nnotanint\n"), schema, CSV); err == nil {
		t.Fatal("bad int accepted")
	}
}

func TestReadJSONLBadTypes(t *testing.T) {
	schema := data.Schema{Name: "s", Cols: []data.Column{{Name: "a", Kind: data.KindInt}}}
	if _, err := ReadTable(strings.NewReader(`{"a":"str"}`), schema, JSONL); err == nil {
		t.Fatal("string where int expected accepted")
	}
	if _, err := ReadTable(strings.NewReader(`{bad json`), schema, JSONL); err == nil {
		t.Fatal("bad json accepted")
	}
	// Missing field decodes as null.
	tab, err := ReadTable(strings.NewReader(`{}`), schema, JSONL)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Rows[0][0].IsNull() {
		t.Fatal("missing field should be null")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := graphgen.DefaultRMAT.Generate(stats.NewRNG(1), 8)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || len(got.Edges) != len(g.Edges) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.N, len(got.Edges), g.N, len(g.Edges))
	}
	for i := range g.Edges {
		if g.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestEdgeListInfersN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0\t5\n3\t2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 6 {
		t.Fatalf("inferred N = %d, want 6", g.N)
	}
}

func TestEdgeListBadLine(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("nonsense\n")); err == nil {
		t.Fatal("bad edge line accepted")
	}
}
