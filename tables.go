package bdbench

// This file exposes the paper-reproduction surfaces — the derived tables
// of "On Big Data Benchmarking" and the Figure 2/3 process demonstrations
// — so the CLI and external tooling need no internal imports.

import "github.com/bdbench/bdbench/internal/suites"

// Table1Row is one derived row of the paper's Table 1 (data generation
// techniques), produced by capability probes over a suite emulation.
type Table1Row = suites.Table1Row

// DeriveTable1 probes every built-in suite's generators (volume scaling,
// velocity knobs, measured veracity) and derives the Table 1 rows. Suites
// added through RegisterSuite are not part of the paper's table.
func DeriveTable1(seed uint64) ([]Table1Row, error) { return suites.DeriveTable1(seed) }

// FormatTable1 renders derived Table 1 rows as aligned text.
func FormatTable1(rows []Table1Row) string { return suites.FormatTable1(rows) }

// CompareTable1ToPaper diffs derived rows against the paper's published
// Table 1; an empty result is full agreement.
func CompareTable1ToPaper(rows []Table1Row) []string { return suites.CompareToPaper(rows) }

// Table2Row is one derived row of the paper's Table 2 (benchmarking
// techniques): a suite's workload category with examples and stacks.
type Table2Row = suites.Table2Row

// DeriveTable2 lists every built-in suite's workload inventory.
func DeriveTable2() []Table2Row { return suites.DeriveTable2() }

// FormatTable2 renders derived Table 2 rows as aligned text.
func FormatTable2(rows []Table2Row) string { return suites.FormatTable2(rows) }

// CompareTable2ToPaper checks each surveyed suite exposes exactly the
// workload categories the paper lists.
func CompareTable2ToPaper(rows []Table2Row) []string { return suites.CompareTable2ToPaper(rows) }

// ArchitectureLayer is one layer of the Figure 2 reference architecture.
type ArchitectureLayer = suites.Layer

// Architecture returns the three-layer architecture of Figure 2.
func Architecture() []ArchitectureLayer { return suites.Architecture() }

// FormatArchitecture renders the architecture as aligned text.
func FormatArchitecture(layers []ArchitectureLayer) string { return suites.FormatArchitecture(layers) }

// DataGenOutcome traces one Figure 3 data-generation process run.
type DataGenOutcome = suites.DataGenOutcome

// TextDataGenProcess runs the 4-step Figure 3 process for text data.
func TextDataGenProcess(seed uint64, docs, workers int) (*DataGenOutcome, error) {
	return suites.TextDataGenProcess(seed, docs, workers)
}

// TableDataGenProcess runs the 4-step Figure 3 process for table data.
func TableDataGenProcess(seed uint64, rows int64, workers int) (*DataGenOutcome, error) {
	return suites.TableDataGenProcess(seed, rows, workers)
}
