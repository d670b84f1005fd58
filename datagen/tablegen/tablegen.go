// Package tablegen is the public facade over bdbench's structured-data
// generation: per-column generation specs learned from real tables at
// three veracity levels, with serial and parallel materialization.
package tablegen

import (
	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
)

// Table is bdbench's columnar in-memory table.
type Table = data.Table

// TableSpec generates rows of a fixed schema; build one from a real table
// with BuildSpec or start from ReferenceSpec.
type TableSpec = tablegen.TableSpec

// VeracityLevel selects how much a spec learns from the real data.
type VeracityLevel = tablegen.VeracityLevel

// The veracity levels.
const (
	VeracityNone    = tablegen.VeracityNone
	VeracityPartial = tablegen.VeracityPartial
	VeracityFull    = tablegen.VeracityFull
)

// ReferenceSpec returns the deterministic e-commerce orders spec used
// across examples and probes.
func ReferenceSpec(seed uint64) TableSpec { return tablegen.ReferenceSpec(seed) }

// ReferenceTable materializes the reference spec.
func ReferenceTable(seed uint64, rows int64) *Table { return tablegen.ReferenceTable(seed, rows) }

// BuildSpec learns a generation spec from a real table at the given
// veracity level.
func BuildSpec(real *Table, level VeracityLevel, seed uint64) (TableSpec, error) {
	return tablegen.BuildSpec(real, level, seed)
}
