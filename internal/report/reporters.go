package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/workloads"
)

// This file implements scenario.Reporter — the pluggable exporters behind
// the public bdbench API and the CLI's -format flag. Each reporter renders
// a scenario Outcome: the text and markdown reporters produce result
// tables with a per-category summary, the JSON reporter exports the whole
// outcome for downstream tooling.

// reporter is a built-in reporter: it renders an outcome, and a comparison
// of two saved runs, in its format.
type reporter interface {
	scenario.Reporter
	comparison(c *runstore.Comparison) (string, error)
}

// reporters is the one table of output formats: a live run, a saved run and
// a comparison all resolve a format name here.
var reporters = []reporter{TextReporter{}, MarkdownReporter{}, JSONReporter{}}

// Reporters returns the built-in reporters, in table order.
func Reporters() []scenario.Reporter {
	out := make([]scenario.Reporter, len(reporters))
	for i, r := range reporters {
		out[i] = r
	}
	return out
}

// ReporterFor returns the reporter for a format name.
func ReporterFor(format string) (scenario.Reporter, error) { return lookup(format) }

func lookup(format string) (reporter, error) {
	var names []string
	for _, r := range reporters {
		if r.Format() == format {
			return r, nil
		}
		names = append(names, r.Format())
	}
	return nil, fmt.Errorf("report: unknown format %q (have: %s)", format, strings.Join(names, ", "))
}

// TextReporter renders the outcome as aligned-text tables.
type TextReporter struct{}

// Format implements scenario.Reporter.
func (TextReporter) Format() string { return "text" }

// Report implements scenario.Reporter.
func (TextReporter) Report(w io.Writer, o *scenario.Outcome) error {
	return style{table: Table}.report(w, o)
}

// MarkdownReporter renders the outcome as GitHub-flavored markdown.
type MarkdownReporter struct{}

// Format implements scenario.Reporter.
func (MarkdownReporter) Format() string { return "markdown" }

// Report implements scenario.Reporter.
func (MarkdownReporter) Report(w io.Writer, o *scenario.Outcome) error {
	return style{table: Markdown, em: "**", gap: "\n"}.report(w, o)
}

// style is all that differs between the text and the markdown rendering
// of an outcome.
type style struct {
	table func(headers []string, rows [][]string) string
	em    string // wraps emphasized labels: markdown bolding, empty for text
	gap   string // between a title and its table: markdown needs a blank line
}

func (s style) report(w io.Writer, o *scenario.Outcome) error {
	if _, err := io.WriteString(w, s.table(outcomeHeaders, outcomeRows(o))); err != nil {
		return err
	}
	if err := s.titled(w, "latency under load (from intended start)", loadHeaders, LoadRows(o)); err != nil {
		return err
	}
	if err := s.titled(w, "operation pattern breakdown (per phase)", phaseHeaders, PhaseRows(o)); err != nil {
		return err
	}
	return writeSummary(w, o, s.em)
}

// titled appends a table under its title; a table with no rows (no result
// ran open-loop, none came from a composed pattern) is left out whole.
func (s style) titled(w io.Writer, title string, headers []string, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "\n%s%s%s\n%s%s", s.em, title, s.em, s.gap, s.table(headers, rows))
	return err
}

// JSONReporter exports the full outcome — normalized spec, step trace,
// per-workload results with repetitions, summary and probes — as JSON.
type JSONReporter struct{}

// Format implements scenario.Reporter.
func (JSONReporter) Format() string { return "json" }

// Report implements scenario.Reporter.
func (JSONReporter) Report(w io.Writer, o *scenario.Outcome) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(o); err != nil {
		return fmt.Errorf("report: json: %w", err)
	}
	return nil
}

var outcomeHeaders = []string{"workload", "suite", "category", "elapsed", "dataprep", "ops/s", "reps", "status"}

func outcomeRows(o *scenario.Outcome) [][]string {
	rows := make([][]string, 0, len(o.Results))
	for _, r := range o.Results {
		status := "ok"
		if r.Err != nil {
			status = "FAIL: " + r.Err.Error()
		} else if r.Error != "" {
			status = "FAIL: " + r.Error
		}
		// The ops/s cell is always the median repetition (matching elapsed);
		// with several reps the spread across them is shown alongside.
		tput := fmt.Sprintf("%.0f", r.Result.Throughput)
		if len(r.Reps) > 1 {
			tput = fmt.Sprintf("%.0f ±%.0f", r.Result.Throughput, r.Throughput.StdDev)
		}
		suite := r.Suite
		if suite == "" {
			suite = "-"
		}
		// Data preparation is part of elapsed, reported separately so the
		// generation cost the paper accounts for stays visible.
		prep := "-"
		if r.Result.DataPrep > 0 {
			prep = r.Result.DataPrep.Round(time.Millisecond).String()
			if r.Result.DataPrep < time.Millisecond {
				prep = "<1ms"
			}
		}
		rows = append(rows, []string{
			r.Workload, suite, string(r.Category),
			r.Result.Elapsed.Round(time.Millisecond).String(),
			prep,
			tput,
			fmt.Sprintf("%d", len(r.Reps)),
			status,
		})
	}
	return rows
}

// loadHeaders are the columns of the latency-under-load table. Latency
// percentiles are measured from each operation's intended start, so they
// include queueing delay behind slow operations. With one entry per rate
// the table is the throughput-vs-latency curve: the row where achieved
// stops tracking offered and the tail takes off is the saturation knee.
var loadHeaders = []string{"workload", "arrival", "offered", "achieved", "p50", "p95", "p99", "max", "errs"}

// LoadRows renders one latency-under-load row per open-loop result; empty
// when the outcome ran closed-loop.
func LoadRows(o *scenario.Outcome) [][]string {
	var rows [][]string
	for _, r := range o.Results {
		if r.Load == nil {
			continue
		}
		rows = append(rows, []string{
			r.Workload, r.Load.Arrival,
			fmt.Sprintf("%.0f/s", r.Load.Offered),
			fmt.Sprintf("%.0f/s", r.Load.Achieved),
			FormatLatency(r.Load.Latency.P50),
			FormatLatency(r.Load.Latency.P95),
			FormatLatency(r.Load.Latency.P99),
			FormatLatency(r.Load.Latency.Max),
			fmt.Sprintf("%d", r.Load.Errors),
		})
	}
	return rows
}

// FormatLatency renders a latency at a resolution fit for a table cell,
// down to whole microseconds and, below one microsecond, nanoseconds.
func FormatLatency(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// phaseHeaders are the columns of the operation-pattern breakdown. Each
// row is one (phase, operation) cell of a composed workload's stream.
var phaseHeaders = []string{"workload", "phase", "op", "count", "mean", "p95", "max"}

// PhaseRows renders one row per (phase, operation) cell of every composed
// workload in the outcome; empty when no result recorded pattern-style
// "phase/op" labels. Rows keep the collector's observation order, which is
// the pattern's declared phase order.
func PhaseRows(o *scenario.Outcome) [][]string {
	var rows [][]string
	for _, r := range o.Results {
		// Only composed workloads record the pattern digest; its presence
		// distinguishes their "phase/op" labels from ordinary op names that
		// happen to contain a slash.
		if _, ok := r.Result.Counters["pattern_digest"]; !ok {
			continue
		}
		for _, op := range r.Result.Ops {
			phase, name, ok := strings.Cut(op.Op, "/")
			if !ok || op.Substrate {
				continue
			}
			rows = append(rows, []string{
				r.Workload, phase, name,
				fmt.Sprintf("%d", op.Count),
				FormatLatency(op.Mean),
				FormatLatency(op.P95),
				FormatLatency(op.Max),
			})
		}
	}
	return rows
}

// writeSummary appends the per-category digest and probe evidence.
func writeSummary(w io.Writer, o *scenario.Outcome, em string) error {
	if len(o.Summary) > 0 {
		if _, err := fmt.Fprintf(w, "\n%ssummary (mean ops/s by category)%s\n", em, em); err != nil {
			return err
		}
		for _, cat := range []workloads.Category{workloads.Online, workloads.Offline, workloads.Realtime} {
			if v, ok := o.Summary[cat]; ok {
				if _, err := fmt.Fprintf(w, "  %-22s %12.0f\n", cat, v); err != nil {
					return err
				}
			}
		}
	}
	for _, p := range o.Probes {
		if _, err := fmt.Fprintf(w, "%sdata generation probe%s: suite=%s volume=%q veracity=%q\n",
			em, em, p.Suite, p.Volume, p.Veracity); err != nil {
			return err
		}
	}
	if o.Failures > 0 {
		if _, err := fmt.Fprintf(w, "%s%d workload(s) failed%s\n", em, o.Failures, em); err != nil {
			return err
		}
	}
	return nil
}
