package data

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() not null")
	}
	if v := Int(42); v.Kind() != KindInt || v.Int() != 42 || v.Float() != 42 {
		t.Fatal("Int value broken")
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Fatal("Float value broken")
	}
	if v := String_("hi"); v.Kind() != KindString || v.Str() != "hi" {
		t.Fatal("String value broken")
	}
	if v := Bool(true); v.Kind() != KindBool || !v.Bool() {
		t.Fatal("Bool value broken")
	}
	if v := Bool(false); v.Bool() {
		t.Fatal("Bool(false) broken")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"7":     Int(7),
		"1.5":   Float(1.5),
		"abc":   String_("abc"),
		"true":  Bool(true),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Fatal("Int(2) should equal Float(2.0)")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Fatal("Int(1) should be < Float(1.5)")
	}
	if Compare(Float(3.5), Int(3)) != 1 {
		t.Fatal("Float(3.5) should be > Int(3)")
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null(), Null()) != 0 {
		t.Fatal("null == null")
	}
	if Compare(Null(), Int(-100)) != -1 {
		t.Fatal("null sorts first")
	}
	if Compare(String_(""), Null()) != 1 {
		t.Fatal("non-null sorts after null")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare(String_("a"), String_("b")) != -1 {
		t.Fatal("string compare broken")
	}
	if Compare(Bool(false), Bool(true)) != -1 {
		t.Fatal("bool compare broken")
	}
	if Compare(String_("x"), String_("x")) != 0 {
		t.Fatal("Equal broken")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String_("a")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].Int() != 1 {
		t.Fatal("Clone aliases the original row")
	}
}

func TestSchemaColIndexAndValidate(t *testing.T) {
	s := Schema{Name: "users", Cols: []Column{{"id", KindInt}, {"name", KindString}}}
	if s.ColIndex("name") != 1 || s.ColIndex("missing") != -1 {
		t.Fatal("ColIndex broken")
	}
	if err := s.Validate(Row{Int(1), String_("a")}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{Int(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := s.Validate(Row{Int(1), Int(2)}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if err := s.Validate(Row{Null(), Null()}); err != nil {
		t.Fatalf("nulls should validate anywhere: %v", err)
	}
}

func TestTableAppendAndCol(t *testing.T) {
	s := Schema{Name: "t", Cols: []Column{{"id", KindInt}, {"v", KindFloat}}}
	tab := NewTable(s)
	for i := 0; i < 5; i++ {
		if err := tab.Append(Row{Int(int64(i)), Float(float64(i) * 1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.NumRows() != 5 {
		t.Fatalf("rows %d, want 5", tab.NumRows())
	}
	col, err := tab.Col("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 5 || col[2].Float() != 3.0 {
		t.Fatalf("Col('v') = %v", col)
	}
	if _, err := tab.Col("nope"); err == nil {
		t.Fatal("missing column accepted")
	}
	if err := tab.Append(Row{String_("bad"), Float(1)}); err == nil {
		t.Fatal("bad row accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(200): "kind(200)",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareTransitiveOnInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Int(a), Int(b), Int(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
