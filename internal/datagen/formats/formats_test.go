package formats

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
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

func TestRoundTripSampleTable(t *testing.T) {
	tab := sampleTable(t)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf, tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, tab, got)
}

func TestRoundTripGeneratedTable(t *testing.T) {
	tab := tablegen.ReferenceTable(1, 500)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf, tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 500 {
		t.Fatalf("rows %d", got.NumRows())
	}
	// Floats survive exactly thanks to %g round-trip formatting.
	tablesEqual(t, tab, got)
}

func TestReadSeparatedHeaderMismatch(t *testing.T) {
	schema := data.Schema{Name: "s", Cols: []data.Column{{Name: "a", Kind: data.KindInt}}}
	if _, err := ReadTable(strings.NewReader("b\n1\n"), schema); err == nil {
		t.Fatal("wrong header accepted")
	}
}

func TestReadSeparatedBadValue(t *testing.T) {
	schema := data.Schema{Name: "s", Cols: []data.Column{{Name: "a", Kind: data.KindInt}}}
	if _, err := ReadTable(strings.NewReader("a\nnotanint\n"), schema); err == nil {
		t.Fatal("bad int accepted")
	}
}
