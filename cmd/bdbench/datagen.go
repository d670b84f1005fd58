package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	bdbench "github.com/bdbench/bdbench"
)

// cmdDatagen runs one named corpus generator through the chunked parallel
// pipeline and prints its timing evidence — the generation-cost quantity
// the paper says benchmarks must account for. The digest line is the
// determinism contract made visible: rerun with any -workers value and the
// digest must not change.
func cmdDatagen(args []string) error {
	fs := newFlagSet("datagen")
	workload := fs.String("workload", "text", "corpus generator: "+strings.Join(bdbench.DataGenerators(), "|"))
	scale := fs.Int("scale", 1, "corpus scale (generator-specific unit: docs, rows, edges, events, records)")
	workers := fs.Int("workers", 0, "chunk workers (0 = one per CPU); output bytes are identical at any setting")
	seed := fs.Uint64("seed", 42, "corpus seed; chunk RNGs derive from (seed, chunk index)")
	format := fs.String("format", "text", "output format: text or json")
	out := fs.String("out", "", "write the generation as a run artifact carrying the corpus digest")
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("datagen: unknown format %q (want text or json)", *format)
	}
	stat, err := profiled(pf, func() (bdbench.DataGenStat, error) {
		return bdbench.DataGen(*workload, bdbench.DataGenOptions{
			Scale:   *scale,
			Workers: *workers,
			Seed:    *seed,
		})
	})
	if err != nil {
		return err
	}
	if *out != "" {
		run, err := bdbench.CorpusArtifact(stat)
		if err != nil {
			return err
		}
		if err := bdbench.WriteRun(*out, run); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "datagen: artifact written to %s\n", *out)
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(stat)
	}
	fmt.Fprintf(stdout, "generator  %s\n", stat.Generator)
	fmt.Fprintf(stdout, "scale      %d (seed %d)\n", stat.Scale, stat.Seed)
	fmt.Fprintf(stdout, "workers    %d over %d chunks\n", stat.Workers, stat.Chunks)
	fmt.Fprintf(stdout, "items      %d\n", stat.Items)
	fmt.Fprintf(stdout, "bytes      %d\n", stat.Bytes)
	fmt.Fprintf(stdout, "elapsed    %v\n", stat.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "rate       %.0f items/s, %.1f MB/s\n", stat.ItemsPerSec(), stat.MBPerSec())
	fmt.Fprintf(stdout, "digest     sha256:%s\n", stat.Digest)
	return nil
}
