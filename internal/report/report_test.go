package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{
		{"short", "1"},
		{"a-much-longer-name", "22222"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d", len(lines))
	}
	// All rows align: the value column starts at the same offset.
	idx := strings.Index(lines[0], "value")
	for _, l := range lines[2:] {
		if len(l) < idx {
			t.Fatalf("row too short: %q", l)
		}
	}
}

// TestTableMatchesFmtPadding pins Table's bytes to the fmt rendering it
// replaced, %-*s per cell, whose width counts runes: with a multi-byte
// cell ("µs") a byte-counted pad would shift the columns after it. Table
// allocates its widths and its one output buffer, not an object per cell.
func TestTableMatchesFmtPadding(t *testing.T) {
	viaFmt := func(headers []string, rows [][]string) string {
		widths := make([]int, len(headers))
		for i, h := range headers {
			widths[i] = len(h)
		}
		for _, row := range rows {
			for i, cell := range row {
				widths[i] = max(widths[i], len(cell))
			}
		}
		var b strings.Builder
		for _, cells := range append([][]string{headers, nil}, rows...) {
			if cells == nil {
				for _, w := range widths {
					cells = append(cells, strings.Repeat("-", w))
				}
			}
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, tc := range []struct {
		name    string
		headers []string
		rows    [][]string
	}{
		{"ascii", []string{"name", "value", "n"}, [][]string{{"short", "1", "3"}, {"a-much-longer-name", "22222", ""}}},
		{"multi-byte", []string{"op", "p50", "p99"}, [][]string{{"read", "1.2µs", "35µs"}, {"scan", "850µs", "1.1ms"}, {"Ünïcödé", "ß", "—"}}},
		{"short row", []string{"a", "b"}, [][]string{{"x"}, {}}},
		{"no rows", []string{"only", "headers"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := Table(tc.headers, tc.rows), viaFmt(tc.headers, tc.rows); got != want {
				t.Fatalf("Table:\n%q\nfmt:\n%q", got, want)
			}
			allocs := testing.AllocsPerRun(1, func() {
				for range 100 {
					Table(tc.headers, tc.rows)
				}
			})
			if allocs != 2*100 {
				t.Errorf("100 tables: %.0f allocs, want 200 (the widths and the output of each)", allocs)
			}
		})
	}
}

func TestMarkdown(t *testing.T) {
	out := Markdown([]string{"a", "b"}, [][]string{{"1", "2"}})
	if !strings.HasPrefix(out, "| a | b |") {
		t.Fatalf("markdown header: %q", out)
	}
	if !strings.Contains(out, "| --- | --- |") {
		t.Fatal("markdown separator missing")
	}
	if !strings.Contains(out, "| 1 | 2 |") {
		t.Fatal("markdown row missing")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"x", "y"}, []float64{10, 5}, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines %d", len(lines))
	}
	if strings.Count(lines[0], "#") != 20 {
		t.Fatalf("max bar should fill width: %q", lines[0])
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Fatalf("half bar: %q", lines[1])
	}
}

func TestBarChartZeroValues(t *testing.T) {
	out := BarChart([]string{"z"}, []float64{0}, 10)
	if !strings.Contains(out, "z") {
		t.Fatal("label missing")
	}
}

func TestFormatSeries(t *testing.T) {
	s := Series{Name: "scaling", X: []float64{1, 2}, Y: []float64{10, 19}, XLabel: "workers", YLabel: "rate"}
	out := FormatSeries(s)
	if !strings.Contains(out, "scaling") || !strings.Contains(out, "19") {
		t.Fatalf("series output %q", out)
	}
}

func TestResultRows(t *testing.T) {
	c := metrics.NewCollector("wl")
	c.Op("read").Observe(time.Millisecond)
	c.SetElapsed(time.Second)
	rows := ResultRows([]metrics.Result{c.Snapshot()})
	if len(rows) != 1 || rows[0][0] != "wl" {
		t.Fatalf("rows %v", rows)
	}
	// A result without ops renders dashes.
	empty := metrics.NewCollector("empty")
	empty.SetElapsed(time.Second)
	rows = ResultRows([]metrics.Result{empty.Snapshot()})
	if rows[0][3] != "-" {
		t.Fatalf("empty ops row %v", rows[0])
	}
}

func TestResultRowsPreferWorkloadOpsOverSubstrate(t *testing.T) {
	// A substrate echo with a higher count must not shadow the workload-level
	// op in the p50/p99 columns.
	c := metrics.NewCollector("wl")
	for i := 0; i < 10; i++ {
		c.Op("read").Observe(4 * time.Millisecond)
	}
	echo := c.SubstrateShard().Op("db_execute")
	for i := 0; i < 100; i++ {
		echo.Observe(9 * time.Second)
	}
	c.SetElapsed(time.Second)
	rows := ResultRows([]metrics.Result{c.Snapshot()})
	p50, err := time.ParseDuration(rows[0][3])
	if err != nil || p50 > 100*time.Millisecond {
		t.Fatalf("p50 column %q, want the ~4ms workload-level op, not the 9s substrate echo", rows[0][3])
	}
	// With only substrate ops recorded, fall back to them rather than dashes.
	onlySub := metrics.NewCollector("subonly")
	onlySub.SubstrateShard().Op("map_task").Observe(2 * time.Millisecond)
	onlySub.SetElapsed(time.Second)
	rows = ResultRows([]metrics.Result{onlySub.Snapshot()})
	if _, err := time.ParseDuration(rows[0][3]); err != nil {
		t.Fatalf("substrate-only p50 %q, want a duration fallback, not dashes", rows[0][3])
	}
}

// TestFormatLatency: a latency under a microsecond renders in nanoseconds;
// from a microsecond up each cell keeps its former rounding.
func TestFormatLatency(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0s"},
		{450 * time.Nanosecond, "450ns"},
		{1500 * time.Nanosecond, "2µs"},
		{1234567 * time.Nanosecond, "1.23ms"},
		{2345 * time.Millisecond, "2.35s"},
	} {
		if got := FormatLatency(tc.d); got != tc.want {
			t.Errorf("FormatLatency(%d ns) = %q, want %q", tc.d.Nanoseconds(), got, tc.want)
		}
	}
	c := metrics.NewCollector("wl")
	c.Op("read").Observe(450 * time.Nanosecond)
	c.SetElapsed(time.Second)
	if row := ResultRows([]metrics.Result{c.Snapshot()})[0]; row[3] != "450ns" || row[4] != "450ns" {
		t.Fatalf("a 450ns op renders p50 %q and p99 %q", row[3], row[4])
	}
}

func TestJSON(t *testing.T) {
	out, err := JSON(map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\"a\": 1") {
		t.Fatalf("json %q", out)
	}
	if _, err := JSON(make(chan int)); err == nil {
		t.Fatal("unmarshalable value accepted")
	}
}
