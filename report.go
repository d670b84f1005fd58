package bdbench

import (
	"github.com/bdbench/bdbench/internal/report"
	"github.com/bdbench/bdbench/internal/scenario"
)

// Reporter renders a scenario Outcome in one output format. Implement it
// to plug a custom exporter into the CLI-style flow; the built-ins cover
// aligned text, markdown and JSON.
type Reporter = scenario.Reporter

// NewJSONReporter exports the full outcome as indented JSON.
func NewJSONReporter() Reporter { return report.JSONReporter{} }

// ReporterFor maps a format name to its reporter.
func ReporterFor(format string) (Reporter, error) { return report.ReporterFor(format) }

// Reporters returns the built-in reporters.
func Reporters() []Reporter { return report.Reporters() }

// Formats lists the built-in reporter format names.
func Formats() []string {
	rs := Reporters()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Format()
	}
	return out
}

// FormatResults renders measurement snapshots — with the dominant
// operation's latency percentiles — as an aligned-text table.
func FormatResults(results []Result) string {
	return report.Table([]string{"workload", "elapsed", "ops/s", "p50", "p99"}, report.ResultRows(results))
}

// AlignedTable renders rows under headers with aligned columns.
func AlignedTable(headers []string, rows [][]string) string {
	return report.Table(headers, rows)
}

// BarChart renders labeled values as a horizontal ASCII bar chart scaled
// to width characters.
func BarChart(labels []string, values []float64, width int) string {
	return report.BarChart(labels, values, width)
}

// Series is one named data series for line-style figures.
type Series = report.Series

// FormatSeries renders a series as a two-column table.
func FormatSeries(s Series) string { return report.FormatSeries(s) }
