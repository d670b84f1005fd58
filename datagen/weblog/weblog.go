// Package weblog is the public facade over bdbench's semi-structured web
// log generation: click logs derived from structured tables
// (BigBench-style), so their veracity rides on the tables'.
package weblog

import "github.com/bdbench/bdbench/internal/datagen/weblog"

// Record is one access-log entry.
type Record = weblog.Record

// Generator derives click logs from an orders table.
type Generator = weblog.Generator
