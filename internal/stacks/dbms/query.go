package dbms

import (
	"fmt"
	"math"
	"slices"

	"github.com/bdbench/bdbench/internal/data"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp string

// The supported comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Pred is one predicate: column OP literal. Predicates in a Where list are
// AND-ed.
type Pred struct {
	Col string
	Op  CmpOp
	Val data.Value
}

// Agg is one aggregate expression.
type Agg struct {
	Fn  string // count, sum, avg, min, max
	Col string // "" or "*" for count(*)
	As  string // output column name; defaults to fn(col)
}

func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	col := a.Col
	if col == "" {
		col = "*"
	}
	return a.Fn + "(" + col + ")"
}

// Order is one sort key.
type Order struct {
	Col  string
	Desc bool
}

// JoinSpec is an equi-join with another table.
type JoinSpec struct {
	Table    string
	LeftCol  string
	RightCol string
}

// Query is a logical query plan. The executor applies: a filtered scan of
// From, or an index lookup when an equality predicate's column has an index →
// a hash join with the filtered Join table → group/aggregate or project →
// order → limit. Each Where predicate runs on the side of the join that owns
// its column, before the join.
type Query struct {
	From    string
	Join    *JoinSpec
	Where   []Pred
	Select  []string // empty selects all columns (ignored when Aggs set)
	GroupBy []string
	Aggs    []Agg
	OrderBy []Order
	// Limit caps the result at Limit rows when positive. Zero is no cap, so
	// a Query without a limit returns every row; SQL's LIMIT 0 parses to
	// NoRows.
	Limit int
}

// NoRows is the Limit of a query that returns no rows, as LIMIT 0 does.
const NoRows = -1

// Execute runs a query and returns a result table.
func (db *DB) Execute(q Query) (*data.Table, error) {
	t0 := db.executeRef.StartTimer()
	defer db.executeRef.ObserveSince(t0)
	if len(q.GroupBy) > 0 && len(q.Aggs) == 0 {
		return nil, fmt.Errorf("dbms: GROUP BY requires at least one aggregate in this SQL subset")
	}
	left, err := db.table(q.From)
	if err != nil {
		return nil, err
	}
	// A schema never changes after CreateTable, so it is read unlocked.
	schema := left.schema
	var right *table
	li, ri := -1, -1
	if q.Join != nil {
		if right, err = db.table(q.Join.Table); err != nil {
			return nil, err
		}
		if li = schema.ColIndex(q.Join.LeftCol); li < 0 {
			return nil, fmt.Errorf("dbms: join: no column %q in %q", q.Join.LeftCol, schema.Name)
		}
		if ri = right.schema.ColIndex(q.Join.RightCol); ri < 0 {
			return nil, fmt.Errorf("dbms: join: no column %q in %q", q.Join.RightCol, right.schema.Name)
		}
		schema = joinSchema(schema, right.schema)
	}
	preds, err := resolvePreds(schema, q.Where)
	if err != nil {
		return nil, err
	}
	var lpreds, rpreds []pred
	for _, p := range preds {
		if p.col < len(left.schema.Cols) {
			lpreds = append(lpreds, p)
		} else {
			p.col -= len(left.schema.Cols)
			rpreds = append(rpreds, p)
		}
	}

	// Each side is filtered while it is copied out under its read lock.
	left.mu.RLock()
	working := scan(left, lpreds)
	left.mu.RUnlock()
	if right != nil {
		right.mu.RLock()
		rrows := scan(right, rpreds)
		right.mu.RUnlock()
		working = hashJoin(working, li, rrows, ri, len(schema.Cols))
	}

	if len(q.Aggs) > 0 {
		schema, working, err = aggregate(schema, working, q.GroupBy, q.Aggs)
		if err != nil {
			return nil, err
		}
	} else if len(q.Select) > 0 {
		schema, working, err = project(schema, working, q.Select)
		if err != nil {
			return nil, err
		}
	}

	if len(q.OrderBy) > 0 {
		if err := orderBy(schema, working, q.OrderBy); err != nil {
			return nil, err
		}
	}

	switch {
	case q.Limit < 0:
		working = working[:0]
	case q.Limit > 0 && len(working) > q.Limit:
		working = working[:q.Limit]
	}

	out := data.NewTable(schema)
	out.Rows = working
	return out, nil
}

// scan copies out, in table order, the rows of t that match every predicate.
// The first equality predicate whose column has an index narrows the rows to
// the index's ids, which are ascending; a NULL literal matches no row there as
// in a scan. Compare calls NaN equal to every number, which one key cannot
// say, so a NaN literal, or a number where the index holds a NaN, scans.
// Caller holds t's read lock.
func scan(t *table, ps []pred) []data.Row {
	if len(ps) == 0 {
		return slices.Clone(t.rows)
	}
	for _, p := range ps {
		idx, ok := t.indexes[t.schema.Cols[p.col].Name]
		if !ok || p.op != OpEq {
			continue
		}
		if p.val.IsNull() {
			return nil
		}
		key := data.KeyOf(p.val)
		if k := p.val.Kind(); (k == data.KindInt || k == data.KindFloat) && (key == nanKey || len(idx[nanKey]) > 0) {
			continue
		}
		ids := idx[key]
		out := make([]data.Row, 0, len(ids))
		for _, id := range ids {
			if matches(ps, t.rows[id]) {
				out = append(out, t.rows[id])
			}
		}
		return out
	}
	var out []data.Row
	for _, row := range t.rows {
		if matches(ps, row) {
			out = append(out, row)
		}
	}
	return out
}

// nanKey is the one key of every NaN.
var nanKey = data.KeyOf(data.Float(math.NaN()))

// pred is a Pred resolved to a column position.
type pred struct {
	col int
	op  CmpOp
	val data.Value
}

// resolvePreds resolves the predicates' column names against schema.
func resolvePreds(schema data.Schema, preds []Pred) ([]pred, error) {
	ps := make([]pred, len(preds))
	for i, p := range preds {
		ci := schema.ColIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("dbms: no column %q", p.Col)
		}
		ps[i] = pred{col: ci, op: p.Op, val: p.Val}
	}
	return ps, nil
}

// matches reports whether row satisfies every predicate. Null values never
// match any comparison (SQL three-valued logic collapsed to false).
func matches(ps []pred, row data.Row) bool {
	for _, p := range ps {
		v := row[p.col]
		if v.IsNull() {
			return false
		}
		cmp := data.Compare(v, p.val)
		ok := false
		switch p.op {
		case OpEq:
			ok = cmp == 0
		case OpNe:
			ok = cmp != 0
		case OpLt:
			ok = cmp < 0
		case OpLe:
			ok = cmp <= 0
		case OpGt:
			ok = cmp > 0
		case OpGe:
			ok = cmp >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// joinSchema is a joined row's shape: left columns first, then right columns;
// name collisions on the right are prefixed with "table.".
func joinSchema(ls, rs data.Schema) data.Schema {
	out := data.Schema{Name: ls.Name + "_" + rs.Name}
	out.Cols = append(out.Cols, ls.Cols...)
	taken := make(map[string]bool, len(ls.Cols))
	for _, c := range ls.Cols {
		taken[c.Name] = true
	}
	for _, c := range rs.Cols {
		name := c.Name
		if taken[name] {
			name = rs.Name + "." + name
		}
		out.Cols = append(out.Cols, data.Column{Name: name, Kind: c.Kind})
	}
	return out
}

// hashJoin builds a hash table on the right rows and probes it with the left
// ones: each left row, in order, is followed by the right rows whose column
// ri has the key of its column li, in their order. A NULL joins nothing, and
// a NaN joins only a NaN.
// Every joined row is a capacity-capped window of one slab.
func hashJoin(lrows []data.Row, li int, rrows []data.Row, ri, width int) []data.Row {
	type chain struct{ first, n int } // rows first, next[first], ... n of them
	heads := make(map[data.Key]chain, len(rrows))
	next := make([]int, len(rrows))
	for i := len(rrows) - 1; i >= 0; i-- {
		if v := rrows[i][ri]; !v.IsNull() {
			k := data.KeyOf(v)
			c := heads[k]
			next[i] = c.first
			heads[k] = chain{first: i, n: c.n + 1}
		}
	}
	type hit struct {
		row data.Row
		chain
	}
	var hits []hit
	total := 0
	for _, row := range lrows {
		if v := row[li]; !v.IsNull() {
			if c, ok := heads[data.KeyOf(v)]; ok {
				hits = append(hits, hit{row, c})
				total += c.n
			}
		}
	}
	slab := make([]data.Value, total*width)
	joined := make([]data.Row, 0, total)
	for _, h := range hits {
		for i, n := h.first, h.n; n > 0; i, n = next[i], n-1 {
			row := slab[:width:width]
			slab = slab[width:]
			copy(row, h.row)
			copy(row[len(h.row):], rrows[i])
			joined = append(joined, row)
		}
	}
	return joined
}

// project keeps the named columns. rows is the executor's own slice, so each
// projected row, a window of one slab, takes its input row's slot.
func project(schema data.Schema, rows []data.Row, cols []string) (data.Schema, []data.Row, error) {
	idxs := make([]int, len(cols))
	out := data.Schema{Name: schema.Name}
	for i, c := range cols {
		ci := schema.ColIndex(c)
		if ci < 0 {
			return data.Schema{}, nil, fmt.Errorf("dbms: no column %q", c)
		}
		idxs[i] = ci
		out.Cols = append(out.Cols, schema.Cols[ci])
	}
	w := len(idxs)
	slab := make([]data.Value, len(rows)*w)
	for ri, row := range rows {
		p := slab[ri*w : (ri+1)*w : (ri+1)*w]
		for i, ci := range idxs {
			p[i] = row[ci]
		}
		rows[ri] = p
	}
	return out, rows, nil
}

type aggState struct {
	count int64
	sum   float64
	min   data.Value
	max   data.Value
	seen  bool
}

func aggregate(schema data.Schema, rows []data.Row, groupBy []string, aggs []Agg) (data.Schema, []data.Row, error) {
	groupIdx := make([]int, len(groupBy))
	for i, c := range groupBy {
		ci := schema.ColIndex(c)
		if ci < 0 {
			return data.Schema{}, nil, fmt.Errorf("dbms: group by: no column %q", c)
		}
		groupIdx[i] = ci
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		switch a.Fn {
		case "count":
			aggIdx[i] = -1
			if a.Col != "" && a.Col != "*" {
				ci := schema.ColIndex(a.Col)
				if ci < 0 {
					return data.Schema{}, nil, fmt.Errorf("dbms: count: no column %q", a.Col)
				}
				aggIdx[i] = ci
			}
		case "sum", "avg", "min", "max":
			ci := schema.ColIndex(a.Col)
			if ci < 0 {
				return data.Schema{}, nil, fmt.Errorf("dbms: %s: no column %q", a.Fn, a.Col)
			}
			aggIdx[i] = ci
		default:
			return data.Schema{}, nil, fmt.Errorf("dbms: unknown aggregate %q", a.Fn)
		}
	}

	// A group is named by the first row that had its key. A row's keys are
	// appended into one reused buffer that finds its group, so only a new
	// group copies them into a string. Output is in first-seen order.
	var firsts []int
	var states []aggState // len(aggs) per group
	groups := make(map[string]int)
	var buf []byte
	for r, row := range rows {
		buf = buf[:0]
		for _, ci := range groupIdx {
			buf = data.KeyOf(row[ci]).Append(buf)
		}
		g, ok := groups[string(buf)]
		if !ok {
			g = len(firsts)
			groups[string(buf)] = g
			firsts = append(firsts, r)
			states = append(states, make([]aggState, len(aggs))...)
		}
		for i, a := range aggs {
			st := &states[g*len(aggs)+i]
			switch a.Fn {
			case "count":
				if aggIdx[i] < 0 || !row[aggIdx[i]].IsNull() {
					st.count++
				}
			default:
				v := row[aggIdx[i]]
				if v.IsNull() {
					continue
				}
				st.count++
				st.sum += v.Float()
				if !st.seen || data.Compare(v, st.min) < 0 {
					st.min = v
				}
				if !st.seen || data.Compare(v, st.max) > 0 {
					st.max = v
				}
				st.seen = true
			}
		}
	}
	// Global aggregate over empty input still yields one row.
	if len(groupBy) == 0 && len(firsts) == 0 {
		firsts = append(firsts, -1)
		states = make([]aggState, len(aggs))
	}

	out := data.Schema{Name: schema.Name + "_agg"}
	for i, c := range groupBy {
		out.Cols = append(out.Cols, data.Column{Name: c, Kind: schema.Cols[groupIdx[i]].Kind})
	}
	for i, a := range aggs {
		kind := data.KindFloat
		if a.Fn == "count" {
			kind = data.KindInt
		}
		if a.Fn == "min" || a.Fn == "max" {
			kind = schema.Cols[aggIdx[i]].Kind
		}
		out.Cols = append(out.Cols, data.Column{Name: a.name(), Kind: kind})
	}
	w := len(out.Cols)
	slab := make([]data.Value, len(firsts)*w)
	result := make([]data.Row, 0, len(firsts))
	for g, first := range firsts {
		row := slab[g*w : g*w : (g+1)*w]
		for _, gi := range groupIdx {
			row = append(row, rows[first][gi])
		}
		for i, a := range aggs {
			st := states[g*len(aggs)+i]
			switch a.Fn {
			case "count":
				row = append(row, data.Int(st.count))
			case "sum":
				row = append(row, data.Float(st.sum))
			case "avg":
				if st.count == 0 {
					row = append(row, data.Null())
				} else {
					row = append(row, data.Float(st.sum/float64(st.count)))
				}
			case "min":
				if !st.seen {
					row = append(row, data.Null())
				} else {
					row = append(row, st.min)
				}
			case "max":
				if !st.seen {
					row = append(row, data.Null())
				} else {
					row = append(row, st.max)
				}
			}
		}
		result = append(result, row)
	}
	return out, result, nil
}

func orderBy(schema data.Schema, rows []data.Row, keys []Order) error {
	idxs := make([]int, len(keys))
	for i, k := range keys {
		ci := schema.ColIndex(k.Col)
		if ci < 0 {
			return fmt.Errorf("dbms: order by: no column %q", k.Col)
		}
		idxs[i] = ci
	}
	slices.SortStableFunc(rows, func(a, b data.Row) int {
		for i, k := range keys {
			cmp := data.Compare(a[idxs[i]], b[idxs[i]])
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return -cmp
			}
			return cmp
		}
		return 0
	})
	return nil
}
