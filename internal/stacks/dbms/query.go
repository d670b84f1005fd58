package dbms

import (
	"fmt"
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

// Query is a logical query plan. The executor applies: scan → (index
// lookup) → join → filter → group/aggregate → project → order → limit.
type Query struct {
	From    string
	Join    *JoinSpec
	Where   []Pred
	Select  []string // empty selects all columns (ignored when Aggs set)
	GroupBy []string
	Aggs    []Agg
	OrderBy []Order
	Limit   int
}

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
	left.mu.RLock()
	schema := left.schema
	rows, usedPreds, err := scanWithIndex(left, q)
	if err != nil {
		left.mu.RUnlock()
		return nil, err
	}
	// Copy out so locks release before the pipeline continues.
	working := make([]data.Row, len(rows))
	copy(working, rows)
	left.mu.RUnlock()

	remaining := diffPreds(q.Where, usedPreds)

	if q.Join != nil {
		right, err := db.table(q.Join.Table)
		if err != nil {
			return nil, err
		}
		right.mu.RLock()
		joinedSchema, joined, err := hashJoin(schema, working, right.schema, right.rows, *q.Join)
		right.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		schema, working = joinedSchema, joined
	}

	if len(remaining) > 0 {
		match, err := compilePreds(schema, remaining)
		if err != nil {
			return nil, err
		}
		filtered := working[:0]
		for _, row := range working {
			if match(row) {
				filtered = append(filtered, row)
			}
		}
		working = filtered
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

	if q.Limit > 0 && len(working) > q.Limit {
		working = working[:q.Limit]
	}

	out := data.NewTable(schema)
	out.Rows = working
	return out, nil
}

// scanWithIndex returns candidate rows, using a hash index when an equality
// predicate hits one; it reports which predicates the index consumed.
// Caller holds the table read lock.
func scanWithIndex(t *table, q Query) ([]data.Row, []Pred, error) {
	for _, p := range q.Where {
		if p.Op != OpEq {
			continue
		}
		idx, ok := t.indexes[p.Col]
		if !ok {
			continue
		}
		ids := idx[valueKey(p.Val)]
		rows := make([]data.Row, 0, len(ids))
		for _, id := range ids {
			rows = append(rows, t.rows[id])
		}
		return rows, []Pred{p}, nil
	}
	return t.rows, nil, nil
}

func diffPreds(all, used []Pred) []Pred {
	if len(used) == 0 {
		return all
	}
	var out []Pred
	for _, p := range all {
		skip := false
		for _, u := range used {
			if p == u {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, p)
		}
	}
	return out
}

// compilePreds resolves column names once and returns a row matcher. Null
// values never match any comparison (SQL three-valued logic collapsed to
// false).
func compilePreds(schema data.Schema, preds []Pred) (func(data.Row) bool, error) {
	type compiled struct {
		idx int
		op  CmpOp
		val data.Value
	}
	cs := make([]compiled, len(preds))
	for i, p := range preds {
		ci := schema.ColIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("dbms: no column %q", p.Col)
		}
		cs[i] = compiled{idx: ci, op: p.Op, val: p.Val}
	}
	return func(row data.Row) bool {
		for _, c := range cs {
			v := row[c.idx]
			if v.IsNull() {
				return false
			}
			cmp := data.Compare(v, c.val)
			ok := false
			switch c.op {
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
	}, nil
}

// hashJoin builds a hash table on the right input and probes with the left.
// Output columns: left columns first, then right columns; name collisions
// on the right are prefixed with "table.".
func hashJoin(ls data.Schema, lrows []data.Row, rs data.Schema, rrows []data.Row, spec JoinSpec) (data.Schema, []data.Row, error) {
	li := ls.ColIndex(spec.LeftCol)
	if li < 0 {
		return data.Schema{}, nil, fmt.Errorf("dbms: join: no column %q in %q", spec.LeftCol, ls.Name)
	}
	ri := rs.ColIndex(spec.RightCol)
	if ri < 0 {
		return data.Schema{}, nil, fmt.Errorf("dbms: join: no column %q in %q", spec.RightCol, rs.Name)
	}
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
	build := make(map[string][]int, len(rrows))
	for i, row := range rrows {
		if row[ri].IsNull() {
			continue
		}
		k := valueKey(row[ri])
		build[k] = append(build[k], i)
	}
	var joined []data.Row
	for _, lrow := range lrows {
		if lrow[li].IsNull() {
			continue
		}
		for _, rid := range build[valueKey(lrow[li])] {
			row := make(data.Row, 0, len(out.Cols))
			row = append(row, lrow...)
			row = append(row, rrows[rid]...)
			joined = append(joined, row)
		}
	}
	return out, joined, nil
}

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
	projected := make([]data.Row, len(rows))
	for ri, row := range rows {
		p := make(data.Row, len(idxs))
		for i, ci := range idxs {
			p[i] = row[ci]
		}
		projected[ri] = p
	}
	return out, projected, nil
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

	type group struct {
		key    []data.Value
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string // deterministic first-seen group order
	for _, row := range rows {
		keyVals := make([]data.Value, len(groupIdx))
		keyStr := ""
		for i, gi := range groupIdx {
			keyVals[i] = row[gi]
			keyStr += valueKey(row[gi]) + "\x1f"
		}
		grp, ok := groups[keyStr]
		if !ok {
			grp = &group{key: keyVals, states: make([]aggState, len(aggs))}
			groups[keyStr] = grp
			order = append(order, keyStr)
		}
		for i, a := range aggs {
			st := &grp.states[i]
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
	if len(groupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{states: make([]aggState, len(aggs))}
		order = append(order, "")
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
	result := make([]data.Row, 0, len(groups))
	for _, keyStr := range order {
		grp := groups[keyStr]
		row := make(data.Row, 0, len(out.Cols))
		row = append(row, grp.key...)
		for i, a := range aggs {
			st := grp.states[i]
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
