// Command benchmark is the repository's benchmark: seven workloads, the
// end-to-end metrics a user of bdbench sees on top of a ledger of per-layer
// metrics, and a traced run that shows where the time goes. README.md in
// this directory describes the workloads, the metrics and how to read the
// output.
//
// The driver's contract is one workload per process:
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints, as its last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. Without --workload the
// program runs every workload, each in a child process of its own, first
// untraced and then traced, and prints every metric by name.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned once the results are printed when a correctness
// check failed, so that the exit code says so too.
var errIncorrect = errors.New("a correctness check failed")

func run(args []string) error {
	if err := loadBenchmarkFile("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload      = fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed          = fs.Uint64("seed", 2014, "seed stamped into every spec and generator call")
		seconds       = fs.Float64("seconds", float64(bench.RunSeconds), "how long the timed part of a run measures")
		trace         = fs.Int("trace", 0, "with -workload: 1 records spans and reports the per-layer metrics, 0 the end-to-end metrics")
		noTrace       = fs.Bool("no-trace", false, "without -workload: skip the traced pass")
		smoke         = fs.Bool("smoke", false, "every scale at 1; with a short -seconds the whole set runs in seconds and measures nothing")
		runs          = fs.Int("runs", 1, "without -workload: untraced runs per workload, each with the next seed")
		out           = fs.String("out", "", "without -workload: write the result set to this file")
		traceOut      = fs.String("trace-out", "", "directory that receives <workload>.spans.json from each traced run")
		agree         = fs.Bool("agree", false, "compare two result sets: -agree a.json b.json")
		writeExpected = fs.Bool("write-expected", false, "without -workload: record this run's outputs in benchmark/expected.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agree {
		if fs.NArg() != 2 {
			return errors.New("-agree takes two result files")
		}
		return agreeFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive, -runs at least 1, -trace 0 or 1")
	}
	env := captureEnv(*workload == "")
	if err := requireCPUs(env); err != nil {
		return err
	}
	fmt.Println(env)

	opts := options{seed: *seed, seconds: *seconds, small: *smoke}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			return err
		}
	}

	if *workload != "" {
		opts.workload, opts.trace = *workload, *trace == 1
		opts.traceOut = spanFile(*traceOut, *workload)
		res, err := runInScratch(context.Background(), opts)
		if err != nil {
			return err
		}
		printResult(res)
		return printContract(res)
	}

	set, err := runEvery(opts, *runs, !*noTrace, *traceOut)
	if err != nil {
		return err
	}
	set.Env = env
	printSummary(set)
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			return err
		}
	}
	if *writeExpected {
		if err := recordExpected(filepath.Join("benchmark", "expected.json"), opts, set); err != nil {
			return err
		}
	}
	for _, wr := range set.Workloads {
		for _, r := range wr.Runs {
			if !r.Correct {
				return errIncorrect
			}
		}
		if wr.Traced != nil && !wr.Traced.Correct {
			return errIncorrect
		}
	}
	return nil
}

// runEvery runs every workload: runs untraced runs each, run i with seed
// opts.seed + i, then one traced run. Each is a child process.
func runEvery(opts options, runs int, traced bool, traceOut string) (resultSet, error) {
	set := resultSet{Seed: opts.seed, Seconds: opts.seconds}
	one := func(o options) (*result, error) {
		res, err := runChild(o)
		if err == nil {
			printResult(res)
		}
		return res, err
	}
	for _, w := range bench.Workloads {
		wr := workloadResults{Name: w.Name}
		o := opts
		o.workload = w.Name
		for i := 0; i < runs; i++ {
			o.seed = opts.seed + uint64(i)
			res, err := one(o)
			if err != nil {
				return set, err
			}
			wr.Runs = append(wr.Runs, *res)
		}
		if traced {
			o.seed, o.trace, o.traceOut = opts.seed, true, spanFile(traceOut, w.Name)
			res, err := one(o)
			if err != nil {
				return set, err
			}
			wr.Traced = res
		}
		set.Workloads = append(set.Workloads, wr)
	}
	return set, nil
}

func spanFile(dir, workload string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, workload+".spans.json")
}

// runInScratch runs one workload in this process, with a scratch directory
// for the artifacts it writes. The directory is inside the benchmark's own:
// a run reads and writes nothing outside its checkout.
func runInScratch(ctx context.Context, opts options) (*result, error) {
	dir, err := os.MkdirTemp("benchmark", ".tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts.dir = dir
	return runWorkload(ctx, opts)
}

// runChild runs one workload in a child process — this same binary with
// -workload — so that its peak memory and garbage-collector state are its
// own, and reads the result back from the detail line the child prints.
func runChild(opts options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traced := "0"
	if opts.trace {
		traced = "1"
	}
	args := []string{
		"-workload", opts.workload,
		"-seed", fmt.Sprint(opts.seed),
		"-seconds", fmt.Sprint(opts.seconds),
		"-trace", traced,
	}
	if opts.small {
		args = append(args, "-smoke")
	}
	if opts.traceOut != "" {
		args = append(args, "-trace-out", filepath.Dir(opts.traceOut))
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	for _, line := range strings.Split(stdout.String(), "\n") {
		if raw, ok := strings.CutPrefix(line, detailPrefix); ok {
			var res result
			if err := json.Unmarshal([]byte(raw), &res); err != nil {
				return nil, fmt.Errorf("%s: child's detail line: %w", opts.workload, err)
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s: child printed no result (%v)", opts.workload, runErr)
}

// detailPrefix starts the line on which a single-workload run prints its
// whole result, for the parent that runs every workload to read.
const detailPrefix = "detail "

// printResult prints one run: every metric by name with its unit, then
// whatever the oracle complained about. An untraced run prints the
// end-to-end metrics and, marked as unbounded, the timings and peak memory
// it took; a traced run prints the per-layer ledger.
func printResult(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s seed=%d %s: %d repetitions, %d operations attempted, %d failed\n",
		r.Workload, r.Seed, mode, r.Detail.Reps, r.Attempted, r.Failed)
	if !r.Traced {
		fmt.Printf("  the latency quantiles are over %d samples\n", r.Detail.LatencyN)
	}
	if r.Traced {
		for _, m := range bench.PerLayer {
			fmt.Printf("  %-34s %16.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
		fmt.Printf("  harness overhead: %.2f%% of a repetition is not workload body; spans add up to within %.3f%% of their root\n",
			r.PerLayer["harness.overhead_pct"], r.Detail.AddUpWorst)
	} else {
		for _, m := range bench.EndToEnd {
			fmt.Printf("  %-34s %16.6g %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
		}
		for _, m := range bench.PerLayer {
			if v, ok := r.Unbounded[m.Name]; ok {
				fmt.Printf("  %-34s %16.6g %s (no bound)\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, p := range r.Detail.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
}

// printContract prints the detail line and then, last, the JSON object the
// driver reads: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printContract(r *result) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, raw)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, vals := bench.EndToEnd, r.EndToEnd
	if r.Traced {
		defs, vals = bench.PerLayer, r.PerLayer
	}
	for _, m := range defs {
		metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// resultSet is what -out writes and -agree reads.
type resultSet struct {
	Env       environment       `json:"env"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name string `json:"name"`
	// Runs are the untraced runs, one per seed.
	Runs   []result `json:"runs"`
	Traced *result  `json:"traced,omitempty"`
}

// values returns the metric's value in every untraced run: an end-to-end
// metric, or one of the unbounded ones an untraced run takes.
func (w workloadResults) values(metric string) []float64 {
	out := make([]float64, 0, len(w.Runs))
	for _, r := range w.Runs {
		if v, ok := r.EndToEnd[metric]; ok {
			out = append(out, v)
		} else if v, ok := r.Unbounded[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// printSummary prints the end-to-end medians, one row per workload.
func printSummary(set resultSet) {
	fmt.Printf("\n== end-to-end medians over %d run(s) per workload\n%-18s", len(set.Workloads[0].Runs), "workload")
	for _, m := range bench.EndToEnd {
		fmt.Printf(" %16s", m.Name)
	}
	fmt.Println()
	for _, w := range set.Workloads {
		fmt.Printf("%-18s", w.Name)
		for _, m := range bench.EndToEnd {
			fmt.Printf(" %16.6g", median(w.values(m.Name)))
		}
		fmt.Println()
	}
	var names []string
	for _, w := range set.Workloads {
		if w.Traced != nil {
			names = append(names, fmt.Sprintf("%s %.1f%%", w.Name, w.Traced.PerLayer["harness.overhead_pct"]))
		}
	}
	if len(names) > 0 {
		fmt.Println("harness overhead (share of a repetition that is not workload body):", strings.Join(names, ", "))
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func writeTraceFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
