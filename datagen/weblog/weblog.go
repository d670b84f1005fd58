// Package weblog is the public facade over bdbench's semi-structured web
// log generation: click logs derived from structured tables
// (BigBench-style), so their veracity rides on the tables'.
package weblog

import (
	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
	"github.com/bdbench/bdbench/internal/stats"
)

// Record is one access-log entry.
type Record = weblog.Record

// FromTable derives n click-log records from an orders table with
// customer_id and product_id columns, such as tablegen.ReferenceTable's.
func FromTable(g *stats.RNG, orders *data.Table, n int) ([]Record, error) {
	return weblog.FromTable(g, orders, n)
}
