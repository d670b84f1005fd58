package main

import (
	"fmt"
	"strconv"
	"strings"

	bdbench "github.com/bdbench/bdbench"
)

// cmdCompare diffs two saved run artifacts: per-workload throughput (or
// achieved-rate) deltas from the metadata, latency quantile shifts
// recomputed from the raw streams. A regressed verdict is returned as an
// error, so the process exits nonzero — the CI contract.
func cmdCompare(args []string) error {
	fs := newFlagSet("compare")
	format := fs.String("format", "text", "output format: "+strings.Join(bdbench.Formats(), "|"))
	threshold := fs.Float64("threshold", 0.25, "latency regression threshold: a quantile ratio above 1+threshold regresses")
	tputThreshold := fs.Float64("tput-threshold", 0.25, "throughput/achieved-rate regression threshold (relative drop)")
	minDelta := fs.Duration("min-delta", 0, "absolute latency floor a quantile shift must also exceed, e.g. 1ms")
	minSamples := fs.Int("min-samples", 0, "skip quantile judgement for streams with fewer samples (0 = default)")
	quantiles := fs.String("quantiles", "", "comma-separated quantiles to judge, e.g. 0.5,0.95,0.99 (default p50/p95/p99)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bdbench compare [flags] a.blob b.blob")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("compare: want exactly two run artifacts, got %d", fs.NArg())
	}
	a, err := bdbench.ReadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := bdbench.ReadRun(fs.Arg(1))
	if err != nil {
		return err
	}
	opts := bdbench.CompareOptions{
		LatencyThreshold:    *threshold,
		ThroughputThreshold: *tputThreshold,
		MinDelta:            *minDelta,
		MinSamples:          *minSamples,
	}
	if opts.Quantiles, err = parseQuantiles(*quantiles); err != nil {
		return err
	}
	cmp := bdbench.CompareRuns(a, b, opts)
	rendered, err := bdbench.FormatComparison(cmp, *format)
	if err != nil {
		return err
	}
	if *format != "json" {
		fmt.Fprintf(stdout, "a: %s   (%s)\n", bdbench.RunInfo(a), fs.Arg(0))
		fmt.Fprintf(stdout, "b: %s   (%s)\n\n", bdbench.RunInfo(b), fs.Arg(1))
	}
	fmt.Fprint(stdout, rendered)
	return cmp.Err()
}

// cmdShow re-renders a saved run artifact through the same reporters a
// live run uses — the proof that the blob carries the whole result.
func cmdShow(args []string) error {
	fs := newFlagSet("show")
	format := fs.String("format", "text", "output format: "+strings.Join(bdbench.Formats(), "|"))
	meta := fs.Bool("meta", false, "print the artifact's identity line before the report")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bdbench show [flags] run.blob")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("show: want exactly one run artifact, got %d", fs.NArg())
	}
	run, err := bdbench.ReadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	if *meta {
		fmt.Fprintln(stdout, bdbench.RunInfo(run))
		fmt.Fprintln(stdout)
	}
	return bdbench.RenderRun(stdout, run, *format)
}

// parseQuantiles parses the -quantiles flag: fractions in (0,1), comma
// separated. An empty flag keeps CompareRuns' default set.
func parseQuantiles(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		q, err := strconv.ParseFloat(part, 64)
		if err != nil || q <= 0 || q >= 1 {
			return nil, fmt.Errorf("compare: bad quantile %q (want fractions in (0,1), comma separated)", part)
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("compare: no quantiles given")
	}
	return out, nil
}
