// Package report is bdbench's result analyzer and reporter (the Execution
// layer's last component in Figure 2): aligned-text and markdown tables,
// ASCII bar charts for figure-style series, and JSON export of run
// outcomes.
package report

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/bdbench/bdbench/internal/metrics"
)

// Table renders rows under headers with aligned columns. A column is as
// wide as its longest cell in bytes, and a cell is padded to that width in
// runes, as fmt's %-*s pads: the bytes match that rendering, without
// boxing every cell for fmt.
func Table(headers []string, rows [][]string) string {
	// A padded cell takes its column's width plus the bytes its runes take
	// beyond one each; size sums those extra bytes.
	widths := make([]int, len(headers))
	size := 0
	for i, h := range headers {
		widths[i] = len(h)
		size += len(h) - utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
			size += len(cell) - utf8.RuneCountInString(cell)
		}
	}
	line := 2 * len(headers) // the gaps between columns, and the newline
	for _, w := range widths {
		line += w
	}
	var b strings.Builder
	b.Grow(size + line*(len(rows)+2))
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			pad(&b, ' ', widths[i]-utf8.RuneCountInString(cell))
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		pad(&b, '-', w)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// pad writes n copies of c, none when n ≤ 0.
func pad(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}

// Markdown renders rows as a GitHub-flavored markdown table.
func Markdown(headers []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(headers, " | ") + " |\n")
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// BarChart renders labeled values as a horizontal ASCII bar chart scaled to
// width characters.
func BarChart(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxLabel, maxVal := 0, 0.0
	for i, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if i < len(values) && values[i] > maxVal {
			maxVal = values[i]
		}
	}
	var b strings.Builder
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		n := 0
		if maxVal > 0 {
			n = int(v / maxVal * float64(width))
		}
		fmt.Fprintf(&b, "%-*s | %s %.4g\n", maxLabel, l, strings.Repeat("#", n), v)
	}
	return b.String()
}

// Series is one named data series for line-style figures.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// FormatSeries renders a series as a two-column table; plotting is left to
// downstream tooling, bdbench reports the numbers.
func FormatSeries(s Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	for i := range s.X {
		y := 0.0
		if i < len(s.Y) {
			y = s.Y[i]
		}
		fmt.Fprintf(&b, "%12.4g  %12.6g\n", s.X[i], y)
	}
	return b.String()
}

// ResultRows converts workload results into table rows: name, elapsed,
// throughput, p50/p99 of the dominant operation. Substrate echoes (stack
// instrumentation underneath the workload's own measurements) are skipped
// when picking the dominant op unless no workload-level op exists, so the
// latency columns describe what the workload's user perceives.
func ResultRows(results []metrics.Result) [][]string {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		p50, p99 := "-", "-"
		var dominant *metrics.OpStats
		for i := range r.Ops {
			op := &r.Ops[i]
			switch {
			case dominant == nil:
				dominant = op
			case dominant.Substrate != op.Substrate:
				if dominant.Substrate {
					dominant = op
				}
			case op.Count > dominant.Count:
				dominant = op
			}
		}
		if dominant != nil {
			p50 = FormatLatency(dominant.P50)
			p99 = FormatLatency(dominant.P99)
		}
		rows = append(rows, []string{
			r.Name,
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			p50,
			p99,
		})
	}
	return rows
}

// JSON marshals any report payload with indentation.
func JSON(v any) (string, error) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	return string(raw), nil
}
