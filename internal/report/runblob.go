package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
)

// This file is the blob-backed side of the reporter: any saved run artifact
// (internal/runstore) re-renders through the same reporters a live run uses,
// and a runstore.Comparison renders as the delta tables behind
// `bdbench compare`.

// RenderRun re-renders a saved run artifact in the named format ("text",
// "markdown", "json"). A scenario blob's payload is the full Outcome, so it
// goes through the reporters and renders exactly as the live run did. Any
// other kind's payload — a DataGenStat, a caller-defined document, a bench
// or loadcurve blob from before those kinds were retired — is a
// self-describing JSON document and renders as-is, whatever the format.
func RenderRun(w io.Writer, run *runstore.Run, format string) error {
	rep, err := lookup(format)
	if err != nil {
		return err
	}
	if run.Meta.Kind == runstore.KindScenario {
		var o scenario.Outcome
		if err := json.Unmarshal(run.Meta.Payload, &o); err != nil {
			return fmt.Errorf("report: run payload: %w", err)
		}
		return rep.Report(w, &o)
	}
	var doc any
	if err := json.Unmarshal(run.Meta.Payload, &doc); err != nil {
		return fmt.Errorf("report: run payload: %w", err)
	}
	s, err := JSON(doc)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s+"\n")
	return err
}

// RunInfo renders a one-paragraph identity block for a run artifact — what
// `bdbench compare` prints above the delta tables so the reader knows which
// runs are being compared.
func RunInfo(run *runstore.Run) string {
	m := run.Meta
	var b strings.Builder
	fmt.Fprintf(&b, "%s %q", m.Kind, m.Name)
	switch {
	case m.Tool != "" && m.ToolVersion != "":
		fmt.Fprintf(&b, " (%s %s)", m.Tool, m.ToolVersion)
	case m.Tool != "":
		fmt.Fprintf(&b, " (%s)", m.Tool)
	}
	if m.Seed != 0 || m.Kind == runstore.KindScenario {
		fmt.Fprintf(&b, " seed=%d", m.Seed)
	}
	if m.SpecDigest != "" {
		fmt.Fprintf(&b, " spec=%.12s", m.SpecDigest)
	}
	if m.CreatedUnix != 0 {
		fmt.Fprintf(&b, " created=%s", time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339))
	}
	fmt.Fprintf(&b, " series=%d", len(run.Series))
	return b.String()
}

// FormatComparison renders a comparison in the named format. Text and
// markdown produce the workload and per-series delta tables with the overall
// verdict; JSON exports the whole Comparison document.
func FormatComparison(c *runstore.Comparison, format string) (string, error) {
	r, err := lookup(format)
	if err != nil {
		return "", err
	}
	return r.comparison(c)
}

func (TextReporter) comparison(c *runstore.Comparison) (string, error) {
	return comparisonTables(c, Table, ""), nil
}

func (MarkdownReporter) comparison(c *runstore.Comparison) (string, error) {
	return comparisonTables(c, Markdown, "**"), nil
}

func (JSONReporter) comparison(c *runstore.Comparison) (string, error) {
	s, err := JSON(c)
	if err != nil {
		return "", err
	}
	return s + "\n", nil
}

func comparisonTables(c *runstore.Comparison, render func([]string, [][]string) string, em string) string {
	var b strings.Builder
	match := "differs"
	if c.SpecMatch {
		match = "match"
	}
	seed := "differs"
	if c.SeedMatch {
		seed = "match"
	}
	fmt.Fprintf(&b, "%scomparison%s: spec %s, seed %s\n", em, em, match, seed)

	if len(c.Workloads) > 0 {
		fmt.Fprintf(&b, "\n%sworkload rates%s\n", em, em)
		if em != "" {
			b.WriteString("\n")
		}
		rows := make([][]string, 0, len(c.Workloads))
		for _, w := range c.Workloads {
			rows = append(rows, []string{
				w.Workload, w.Metric,
				fmt.Sprintf("%.0f/s", w.A), fmt.Sprintf("%.0f/s", w.B),
				ratioCell(w.Ratio), string(w.Verdict),
			})
		}
		b.WriteString(render([]string{"workload", "metric", "a", "b", "b/a", "verdict"}, rows))
	}

	if len(c.Series) > 0 {
		fmt.Fprintf(&b, "\n%slatency quantiles (per workload/op stream)%s\n", em, em)
		if em != "" {
			b.WriteString("\n")
		}
		var rows [][]string
		for _, s := range c.Series {
			name := s.Workload + "/" + s.Op
			if s.Substrate {
				name += " (substrate)"
			}
			if s.DroppedA > 0 || s.DroppedB > 0 {
				// Capture kept the first N observations of this stream in at
				// least one run; the quantiles describe that prefix only.
				name += " (truncated)"
			}
			if len(s.Quantiles) == 0 {
				rows = append(rows, []string{name, "-", "-", "-", "-", string(s.Verdict)})
				continue
			}
			for _, q := range s.Quantiles {
				rows = append(rows, []string{
					name,
					fmt.Sprintf("p%g", q.Q*100),
					FormatLatency(time.Duration(q.A)), FormatLatency(time.Duration(q.B)),
					ratioCell(q.Ratio), string(q.Verdict),
				})
				name = "" // repeat the stream name only on its first row
			}
		}
		b.WriteString(render([]string{"stream", "q", "a", "b", "b/a", "verdict"}, rows))
	}

	fmt.Fprintf(&b, "\n%sverdict%s: %s", em, em, c.Verdict)
	if c.Regressions > 0 {
		fmt.Fprintf(&b, " (%d regression(s))", c.Regressions)
	}
	b.WriteString("\n")
	return b.String()
}

func ratioCell(r float64) string {
	if r == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", r)
}
