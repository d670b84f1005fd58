package dbms

import (
	"testing"

	"github.com/bdbench/bdbench/internal/data"
)

func usersSchema() data.Schema {
	return data.Schema{Name: "users", Cols: []data.Column{
		{Name: "id", Kind: data.KindInt},
		{Name: "name", Kind: data.KindString},
		{Name: "age", Kind: data.KindInt},
		{Name: "score", Kind: data.KindFloat},
	}}
}

func loadUsers(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	rows := []data.Row{
		{data.Int(1), data.String_("ann"), data.Int(30), data.Float(8.5)},
		{data.Int(2), data.String_("bob"), data.Int(25), data.Float(6.0)},
		{data.Int(3), data.String_("cid"), data.Int(30), data.Float(9.0)},
		{data.Int(4), data.String_("dee"), data.Int(41), data.Float(5.5)},
		{data.Int(5), data.String_("eva"), data.Int(25), data.Null()},
	}
	if err := db.Insert("users", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateDropErrors(t *testing.T) {
	db := Open()
	if err := db.CreateTable(data.Schema{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if err := db.CreateTable(data.Schema{Name: "x"}); err == nil {
		t.Fatal("no columns accepted")
	}
	s := usersSchema()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if err := db.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("users"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	out, err := db.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return out.Rows[0][0].Int()
}

func TestInsertValidation(t *testing.T) {
	db := loadUsers(t)
	if err := db.Insert("users", data.Row{data.Int(9)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := db.Insert("missing", data.Row{}); err == nil {
		t.Fatal("missing table accepted")
	}
	if n := countRows(t, db, "users"); n != 5 {
		t.Fatalf("rows %d", n)
	}
}

func TestSelectWhere(t *testing.T) {
	db := loadUsers(t)
	out, err := db.Query("SELECT name FROM users WHERE age = 30 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Rows[0][0].Str() != "ann" || out.Rows[1][0].Str() != "cid" {
		t.Fatalf("result %v", out.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := loadUsers(t)
	out, err := db.Query("SELECT * FROM users WHERE id <= 2 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || len(out.Schema.Cols) != 4 {
		t.Fatalf("result %+v", out)
	}
}

func TestComparisonOperators(t *testing.T) {
	db := loadUsers(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM users WHERE age != 30", 3},
		{"SELECT id FROM users WHERE age < 30", 2},
		{"SELECT id FROM users WHERE age <= 30", 4},
		{"SELECT id FROM users WHERE age > 30", 1},
		{"SELECT id FROM users WHERE age >= 30", 3},
		{"SELECT id FROM users WHERE name = 'bob'", 1},
		{"SELECT id FROM users WHERE age = 30 AND score > 8.7", 1},
	}
	for _, c := range cases {
		out, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if out.NumRows() != c.want {
			t.Fatalf("%s: rows %d, want %d", c.sql, out.NumRows(), c.want)
		}
	}
}

func TestNullNeverMatches(t *testing.T) {
	db := loadUsers(t)
	// eva has NULL score; no comparison should match it.
	out, err := db.Query("SELECT id FROM users WHERE score >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Fatalf("null row matched: %d rows", out.NumRows())
	}
}

func TestAggregates(t *testing.T) {
	db := loadUsers(t)
	out, err := db.Query("SELECT count(*), sum(age), avg(age), min(age), max(age) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	row := out.Rows[0]
	if row[0].Int() != 5 {
		t.Fatalf("count %v", row[0])
	}
	if row[1].Float() != 151 {
		t.Fatalf("sum %v", row[1])
	}
	if row[2].Float() != 30.2 {
		t.Fatalf("avg %v", row[2])
	}
	if row[3].Int() != 25 || row[4].Int() != 41 {
		t.Fatalf("min/max %v %v", row[3], row[4])
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	db := loadUsers(t)
	out, err := db.Query("SELECT count(score) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].Int() != 4 {
		t.Fatalf("count(score) = %v, want 4 (nulls skipped)", out.Rows[0][0])
	}
}

func TestGroupBy(t *testing.T) {
	db := loadUsers(t)
	out, err := db.Query("SELECT age, count(*) AS n FROM users GROUP BY age ORDER BY age")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups %d, want 3", out.NumRows())
	}
	if out.Rows[0][0].Int() != 25 || out.Rows[0][1].Int() != 2 {
		t.Fatalf("first group %v", out.Rows[0])
	}
	if out.Schema.Cols[1].Name != "n" {
		t.Fatalf("alias not applied: %v", out.Schema.Cols)
	}
}

func TestGlobalAggregateOnEmptyTable(t *testing.T) {
	db := Open()
	if err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	out, err := db.Query("SELECT count(*) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Rows[0][0].Int() != 0 {
		t.Fatalf("empty count %+v", out.Rows)
	}
	out, err = db.Query("SELECT avg(age) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rows[0][0].IsNull() {
		t.Fatal("avg of empty should be NULL")
	}
}

func TestJoin(t *testing.T) {
	db := loadUsers(t)
	orders := data.Schema{Name: "orders", Cols: []data.Column{
		{Name: "oid", Kind: data.KindInt},
		{Name: "user_id", Kind: data.KindInt},
		{Name: "total", Kind: data.KindFloat},
	}}
	if err := db.CreateTable(orders); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders",
		data.Row{data.Int(100), data.Int(1), data.Float(10)},
		data.Row{data.Int(101), data.Int(1), data.Float(20)},
		data.Row{data.Int(102), data.Int(3), data.Float(30)},
		data.Row{data.Int(103), data.Int(99), data.Float(40)}, // dangling FK
	); err != nil {
		t.Fatal(err)
	}
	out, err := db.Query("SELECT name, total FROM users JOIN orders ON id = user_id ORDER BY total")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("join rows %d, want 3", out.NumRows())
	}
	if out.Rows[0][0].Str() != "ann" || out.Rows[2][0].Str() != "cid" {
		t.Fatalf("join result %v", out.Rows)
	}
	// Aggregate over join.
	out, err = db.Query("SELECT name, sum(total) AS spent FROM users JOIN orders ON id = user_id GROUP BY name ORDER BY spent DESC")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].Str() != "ann" || out.Rows[0][1].Float() != 30 {
		t.Fatalf("agg join %v", out.Rows)
	}
}

func TestJoinColumnCollision(t *testing.T) {
	db := loadUsers(t)
	other := data.Schema{Name: "extra", Cols: []data.Column{
		{Name: "id", Kind: data.KindInt},
		{Name: "tag", Kind: data.KindString},
	}}
	if err := db.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("extra", data.Row{data.Int(1), data.String_("vip")}); err != nil {
		t.Fatal(err)
	}
	out, err := db.Query("SELECT name, tag FROM users JOIN extra ON id = id")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Rows[0][1].Str() != "vip" {
		t.Fatalf("collision join %v", out.Rows)
	}
	// The right-side id must be reachable under the prefixed name.
	full, err := db.Query("SELECT extra.id FROM users JOIN extra ON id = id")
	if err != nil {
		t.Fatal(err)
	}
	if full.Rows[0][0].Int() != 1 {
		t.Fatalf("prefixed column %v", full.Rows)
	}
}

func TestOrderByMultipleKeysAndLimit(t *testing.T) {
	db := loadUsers(t)
	out, err := db.Query("SELECT id, age FROM users ORDER BY age ASC, id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("limit ignored: %d", out.NumRows())
	}
	// age 25 first, higher id first within the tie: 5 then 2.
	if out.Rows[0][0].Int() != 5 || out.Rows[1][0].Int() != 2 {
		t.Fatalf("order %v", out.Rows)
	}
}

func TestIndexEqualityLookup(t *testing.T) {
	db := loadUsers(t)
	if err := db.CreateIndex("users", "name"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("users", "name"); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := db.CreateIndex("users", "zzz"); err == nil {
		t.Fatal("index on missing column accepted")
	}
	out, err := db.Query("SELECT id FROM users WHERE name = 'cid'")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Rows[0][0].Int() != 3 {
		t.Fatalf("indexed lookup %v", out.Rows)
	}
	// Index stays correct across inserts.
	if err := db.Insert("users", data.Row{data.Int(6), data.String_("cid"), data.Int(50), data.Float(1)}); err != nil {
		t.Fatal(err)
	}
	out, err = db.Query("SELECT id FROM users WHERE name = 'cid' ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Rows[1][0].Int() != 6 {
		t.Fatalf("index after insert %v", out.Rows)
	}
}

func TestUpdateWhere(t *testing.T) {
	db := loadUsers(t)
	if err := db.CreateIndex("users", "name"); err != nil {
		t.Fatal(err)
	}
	// Snapshot a query result, then update; the snapshot must not change.
	before, err := db.Query("SELECT age FROM users WHERE name = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.UpdateWhere("users", []Pred{{Col: "name", Op: OpEq, Val: data.String_("ann")}},
		map[string]data.Value{"age": data.Int(31)})
	if err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	if before.Rows[0][0].Int() != 30 {
		t.Fatal("update mutated a previously returned result (no copy-on-write)")
	}
	after, err := db.Query("SELECT age FROM users WHERE name = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].Int() != 31 {
		t.Fatalf("update not visible: %v", after.Rows)
	}
	// Kind mismatch and bad column rejected.
	if _, err := db.UpdateWhere("users", nil, map[string]data.Value{"age": data.String_("x")}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := db.UpdateWhere("users", nil, map[string]data.Value{"zz": data.Int(1)}); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestUpdateMaintainsIndex(t *testing.T) {
	db := loadUsers(t)
	if err := db.CreateIndex("users", "name"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.UpdateWhere("users",
		[]Pred{{Col: "id", Op: OpEq, Val: data.Int(2)}},
		map[string]data.Value{"name": data.String_("bobby")}); err != nil {
		t.Fatal(err)
	}
	out, err := db.Query("SELECT id FROM users WHERE name = 'bobby'")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Rows[0][0].Int() != 2 {
		t.Fatalf("index lookup after update %v", out.Rows)
	}
	out, err = db.Query("SELECT id FROM users WHERE name = 'bob'")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatal("stale index entry remained")
	}
}

func TestDeleteWhere(t *testing.T) {
	db := loadUsers(t)
	if err := db.CreateIndex("users", "name"); err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhere("users", []Pred{{Col: "age", Op: OpEq, Val: data.Int(25)}})
	if err != nil || n != 2 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	if rows := countRows(t, db, "users"); rows != 3 {
		t.Fatalf("rows after delete %d", rows)
	}
	// Index rebuilt correctly.
	out, err := db.Query("SELECT id FROM users WHERE name = 'cid'")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("post-delete index lookup %v", out.Rows)
	}
}

func TestLoadFromGeneratedTable(t *testing.T) {
	db := Open()
	src := data.NewTable(usersSchema())
	src.Rows = append(src.Rows, data.Row{data.Int(1), data.String_("x"), data.Int(1), data.Float(0)})
	if err := db.Load(src); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(src); err != nil { // second load appends
		t.Fatal(err)
	}
	if n := countRows(t, db, "users"); n != 2 {
		t.Fatalf("rows %d", n)
	}
	if len(db.tables) != 1 {
		t.Fatalf("tables %v", db.tables)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM users",
		"SELECT * users",
		"SELECT * FROM",
		"SELECT * FROM users WHERE",
		"SELECT * FROM users WHERE age",
		"SELECT * FROM users WHERE age = ",
		"SELECT * FROM users WHERE age ~ 3",
		"SELECT * FROM users LIMIT abc",
		"SELECT * FROM users GROUP age",
		"SELECT * FROM users ORDER age",
		"SELECT * FROM users trailing",
		"SELECT count( FROM users",
		"SELECT * FROM users JOIN x ON a b",
	}
	for _, sql := range bad {
		if _, err := ParseSQL(sql); err == nil {
			t.Fatalf("accepted bad SQL: %q", sql)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := ParseSQL("SELECT id FROM t WHERE a = 'it''s' AND b = -3 AND c = 2.5 AND d = true AND e = NULL")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Val.Str() != "it's" {
		t.Fatalf("escaped quote: %q", q.Where[0].Val.Str())
	}
	if q.Where[1].Val.Int() != -3 {
		t.Fatalf("negative int: %v", q.Where[1].Val)
	}
	if q.Where[2].Val.Float() != 2.5 {
		t.Fatalf("float: %v", q.Where[2].Val)
	}
	if !q.Where[3].Val.Bool() {
		t.Fatalf("bool: %v", q.Where[3].Val)
	}
	if !q.Where[4].Val.IsNull() {
		t.Fatalf("null: %v", q.Where[4].Val)
	}
}

func TestExecuteErrors(t *testing.T) {
	db := loadUsers(t)
	cases := []string{
		"SELECT zzz FROM users",
		"SELECT * FROM missing",
		"SELECT * FROM users WHERE zzz = 1",
		"SELECT count(zzz) FROM users",
		"SELECT sum(zzz) FROM users",
		"SELECT id FROM users GROUP BY zzz",
		"SELECT id FROM users ORDER BY zzz",
		"SELECT * FROM users JOIN missing ON id = id",
		"SELECT * FROM users JOIN users ON zzz = id",
	}
	for _, sql := range cases {
		if _, err := db.Query(sql); err == nil {
			t.Fatalf("accepted bad query: %q", sql)
		}
	}
}
