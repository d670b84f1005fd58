package suites

import (
	"fmt"
	"strings"

	"github.com/bdbench/bdbench/internal/workloads"
)

// This file derives the paper's Table 2 ("Comparison of benchmarking
// techniques"): for each suite, the workload categories with example
// workloads and software stacks — and, unlike a survey table, every row is
// executable: Suite.Tasks hands the suite's whole inventory to the execution
// engine, which runs it on bdbench's substrates.

// Table2Row is one (suite, category) row.
type Table2Row struct {
	Benchmark string
	Ref       string
	Category  workloads.Category
	Examples  []string
	Stacks    []string
	Workloads []string // runnable workload names backing the row
}

// DeriveTable2 lists every suite's workload inventory.
func DeriveTable2() []Table2Row {
	var rows []Table2Row
	for _, s := range All() {
		for _, r := range s.Rows {
			row := Table2Row{
				Benchmark: s.Name,
				Ref:       s.Ref,
				Category:  r.Category,
				Examples:  r.Examples,
				Stacks:    s.SoftwareStacks,
			}
			for _, w := range r.Runners {
				row.Workloads = append(row.Workloads, w.Name())
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PaperTable2Categories returns, per suite, the workload categories the
// paper lists — the checkable structure of Table 2.
func PaperTable2Categories() map[string][]workloads.Category {
	return map[string][]workloads.Category{
		"HiBench":                       {workloads.Offline, workloads.Realtime},
		"GridMix":                       {workloads.Online},
		"PigMix":                        {workloads.Online},
		"YCSB":                          {workloads.Online},
		"Performance benchmark (Pavlo)": {workloads.Online},
		"TPC-DS":                        {workloads.Online},
		"BigBench":                      {workloads.Online, workloads.Offline},
		"LinkBench":                     {workloads.Online},
		"CloudSuite":                    {workloads.Online, workloads.Offline},
		"BigDataBench":                  {workloads.Online, workloads.Offline, workloads.Realtime},
	}
}

// CompareTable2ToPaper checks that each suite exposes exactly the workload
// categories the paper lists (bdbench's own row is skipped).
func CompareTable2ToPaper(rows []Table2Row) []string {
	paper := PaperTable2Categories()
	got := map[string]map[workloads.Category]bool{}
	for _, r := range rows {
		if got[r.Benchmark] == nil {
			got[r.Benchmark] = map[workloads.Category]bool{}
		}
		got[r.Benchmark][r.Category] = true
	}
	var diffs []string
	for suite, cats := range paper {
		g := got[suite]
		if g == nil {
			diffs = append(diffs, fmt.Sprintf("%s: missing from derived table", suite))
			continue
		}
		for _, c := range cats {
			if !g[c] {
				diffs = append(diffs, fmt.Sprintf("%s: missing category %q", suite, c))
			}
		}
		if len(g) != len(cats) {
			diffs = append(diffs, fmt.Sprintf("%s: has %d categories, paper lists %d", suite, len(g), len(cats)))
		}
	}
	return diffs
}

// FormatTable2 renders the derived table as aligned text.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s  %-22s  %-60s  %s\n", "Benchmark efforts", "Workload type", "Examples", "Software stacks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s  %-22s  %-60s  %s\n",
			r.Benchmark, r.Category, strings.Join(r.Examples, "; "), strings.Join(r.Stacks, ", "))
	}
	return b.String()
}
