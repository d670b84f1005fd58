// Package dbms is bdbench's relational substrate: an in-memory row store
// with typed schemas, hash indexes, a relational executor (scan, filter,
// hash join, group-by aggregation, sort, limit) and a small SQL-subset
// parser. It stands in for the DBMS side of the paper's surveyed benchmarks
// — the TPC-DS engine, the parallel DBMSs of the Pavlo comparison, and the
// MySQL tier under LinkBench.
package dbms

import (
	"fmt"
	"slices"
	"sync"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/metrics"
)

// DB is a named collection of tables. All public methods are safe for
// concurrent use; writes take a per-table exclusive lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	// Executor-level latency handles, zero (no-ops) until Instrument.
	loadRef, indexRef, executeRef metrics.OpRef
}

type table struct {
	mu      sync.RWMutex
	schema  data.Schema
	rows    []data.Row
	indexes map[string]map[string][]int // column -> value key -> row ids
}

// Open returns an empty database.
func Open() *DB {
	return &DB{tables: make(map[string]*table)}
}

// Instrument attaches a collector (nil detaches) and returns the database.
// Executor-level wall times ("db_execute", "db_load", "db_index") are
// recorded into a private substrate shard minted from c, underneath
// whatever the calling workload measures itself.
func (db *DB) Instrument(c *metrics.Collector) *DB {
	shard := c.SubstrateShard()
	db.loadRef = shard.Op("db_load")
	db.indexRef = shard.Op("db_index")
	db.executeRef = shard.Op("db_execute")
	return db
}

// CreateTable registers an empty table with the schema.
func (db *DB) CreateTable(schema data.Schema) error {
	if schema.Name == "" {
		return fmt.Errorf("dbms: table needs a name")
	}
	if len(schema.Cols) == 0 {
		return fmt.Errorf("dbms: table %q needs columns", schema.Name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[schema.Name]; ok {
		return fmt.Errorf("dbms: table %q already exists", schema.Name)
	}
	db.tables[schema.Name] = &table{
		schema:  schema,
		indexes: make(map[string]map[string][]int),
	}
	return nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("dbms: no table %q", name)
	}
	delete(db.tables, name)
	return nil
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dbms: no table %q", name)
	}
	return t, nil
}

// Insert appends rows to a table, validating against the schema.
func (db *DB) Insert(name string, rows ...data.Row) error {
	t, err := db.table(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		if err := t.schema.Validate(row); err != nil {
			return err
		}
	}
	base := len(t.rows)
	t.rows = append(t.rows, rows...)
	for col, idx := range t.indexes {
		ci := t.schema.ColIndex(col)
		for i, row := range rows {
			key := valueKey(row[ci])
			idx[key] = append(idx[key], base+i)
		}
	}
	return nil
}

// Load creates the table if necessary and bulk-inserts the data.
func (db *DB) Load(src *data.Table) error {
	t0 := db.loadRef.StartTimer()
	defer db.loadRef.ObserveSince(t0)
	if _, err := db.table(src.Schema.Name); err != nil {
		if err := db.CreateTable(src.Schema); err != nil {
			return err
		}
	}
	return db.Insert(src.Schema.Name, src.Rows...)
}

// CreateIndex builds a hash index on the column, used by equality
// predicates.
func (db *DB) CreateIndex(tableName, col string) error {
	t0 := db.indexRef.StartTimer()
	defer db.indexRef.ObserveSince(t0)
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("dbms: no column %q in table %q", col, tableName)
	}
	if _, ok := t.indexes[col]; ok {
		return fmt.Errorf("dbms: index on %s.%s already exists", tableName, col)
	}
	idx := make(map[string][]int)
	for i, row := range t.rows {
		key := valueKey(row[ci])
		idx[key] = append(idx[key], i)
	}
	t.indexes[col] = idx
	return nil
}

// valueKey renders a value as a hashable index key with a kind tag so
// Int(1) and String("1") never collide.
func valueKey(v data.Value) string {
	return fmt.Sprintf("%d:%s", v.Kind(), v.String())
}

// UpdateWhere sets the given columns on every row matching the predicates
// and returns the number of rows changed. Indexes on changed columns are
// maintained.
func (db *DB) UpdateWhere(name string, preds []Pred, set map[string]data.Value) (int, error) {
	t, err := db.table(name)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	setIdx := make(map[int]data.Value, len(set))
	for col, v := range set {
		ci := t.schema.ColIndex(col)
		if ci < 0 {
			return 0, fmt.Errorf("dbms: no column %q in table %q", col, name)
		}
		if !v.IsNull() && v.Kind() != t.schema.Cols[ci].Kind {
			return 0, fmt.Errorf("dbms: column %q kind mismatch", col)
		}
		setIdx[ci] = v
	}
	match, err := compilePreds(t.schema, preds)
	if err != nil {
		return 0, err
	}
	changed := 0
	for ri, row := range t.rows {
		if !match(row) {
			continue
		}
		// Copy-on-write: previously returned query results may alias this
		// row's storage, so updates install a fresh row instead of
		// mutating in place.
		next := row.Clone()
		for ci, v := range setIdx {
			col := t.schema.Cols[ci].Name
			if idx, ok := t.indexes[col]; ok {
				old := valueKey(row[ci])
				idx[old] = slices.DeleteFunc(idx[old], func(id int) bool { return id == ri })
				idx[valueKey(v)] = append(idx[valueKey(v)], ri)
			}
			next[ci] = v
		}
		t.rows[ri] = next
		changed++
	}
	return changed, nil
}

// DeleteWhere removes rows matching the predicates, returning the count.
// Row ids shift, so indexes are rebuilt.
func (db *DB) DeleteWhere(name string, preds []Pred) (int, error) {
	t, err := db.table(name)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	match, err := compilePreds(t.schema, preds)
	if err != nil {
		return 0, err
	}
	kept := t.rows[:0]
	deleted := 0
	for _, row := range t.rows {
		if match(row) {
			deleted++
			continue
		}
		kept = append(kept, row)
	}
	t.rows = kept
	if deleted > 0 {
		for col := range t.indexes {
			ci := t.schema.ColIndex(col)
			idx := make(map[string][]int)
			for i, row := range t.rows {
				key := valueKey(row[ci])
				idx[key] = append(idx[key], i)
			}
			t.indexes[col] = idx
		}
	}
	return deleted, nil
}
