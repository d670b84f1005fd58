package suites

import (
	"fmt"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/formats"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/veracity"
	"github.com/bdbench/bdbench/internal/stats"
)

// This file reproduces the paper's figures that are not a run of the
// scenario runner, as executable artifacts beside Tables 1 and 2: Figure 2
// (the three-layer architecture) and Figure 3 (the data generation
// process). The five-step process of Figure 1 is internal/scenario;
// Figure 4 is internal/testgen.

// Layer describes one architecture layer and the packages implementing it.
type Layer struct {
	Name       string
	Role       string
	Components []string
}

// Architecture returns the three-layer design of Figure 2 mapped onto
// bdbench's packages.
func Architecture() []Layer {
	return []Layer{
		{
			Name: "User Interface Layer",
			Role: "specify benchmarking requirements: data, workloads, metrics, volume, velocity",
			Components: []string{
				"bdbench.Scenario (benchmark configuration; internal/scenario)",
				"cmd/bdbench (CLI)",
			},
		},
		{
			Name: "Function Layer",
			Role: "data generators, test generator, metrics",
			Components: []string{
				"datagen/textgen (LDA, random text)",
				"datagen/tablegen (profiles, MUDD-style, PDGF-style)",
				"datagen/graphgen (RMAT/Kronecker, Barabási–Albert)",
				"datagen/streamgen (rate, arrival, update-mix control)",
				"datagen/weblog (semi-structured web logs derived from tables)",
				"datagen/veracity (KL/JS/KS/EMD veracity metrics)",
				"testgen (operations, patterns, prescriptions)",
				"metrics (user-perceivable + architecture metrics, energy, cost)",
			},
		},
		{
			Name: "Execution Layer",
			Role: "system configuration, format conversion, result analysis",
			Components: []string{
				"stacks/mapreduce, stacks/dbms, stacks/streaming, stacks/graphengine, internal/stacks/nosql",
				"internal/datagen/formats (CSV table writer)",
				"report (analyzer and reporter)",
			},
		},
	}
}

// FormatArchitecture renders the layers as indented text.
func FormatArchitecture(layers []Layer) string {
	var b strings.Builder
	for i, l := range layers {
		fmt.Fprintf(&b, "%d. %s — %s\n", i+1, l.Name, l.Role)
		for _, c := range l.Components {
			fmt.Fprintf(&b, "     - %s\n", c)
		}
	}
	return b.String()
}

// DataGenStep is one step of the Figure 3 data generation process.
type DataGenStep struct {
	Step     int
	Name     string
	Detail   string
	Duration time.Duration
}

// DataGenOutcome is the result of running the four-step data generation
// process for the text data type.
type DataGenOutcome struct {
	Steps []DataGenStep
	// Divergence is the veracity score of the generated data vs the real
	// data (§5.1 metric).
	Divergence float64
	// Records is the volume actually generated.
	Records int
	// FormatBytes is the size of the converted output.
	FormatBytes int
}

// TextDataGenProcess executes Figure 3 for text data: (1) select the real
// data set, (2) fit the data model (LDA), (3) generate at the requested
// volume through the chunked pipeline, so the corpus is the same at any
// worker count, (4) convert the result to the requested wire format. It
// returns the step trace plus the veracity measurement.
func TextDataGenProcess(seed uint64, docs int, workers int) (*DataGenOutcome, error) {
	out := &DataGenOutcome{}
	record := func(step int, name, detail string, t0 time.Time) {
		out.Steps = append(out.Steps, DataGenStep{Step: step, Name: name, Detail: detail, Duration: time.Since(t0)})
	}

	// Step 1: select real data.
	t0 := time.Now()
	raw := textgen.ReferenceCorpus(seed, 200, 60)
	record(1, "select real data", fmt.Sprintf("%d docs, %d words", len(raw), raw.Words()), t0)

	// Step 2: fit the data model.
	t1 := time.Now()
	lda := textgen.NewLDA()
	if err := lda.Train(raw, 25, stats.NewRNG(seed+1)); err != nil {
		return nil, err
	}
	record(2, "build data model", fmt.Sprintf("LDA k=%d vocab=%d", textgen.LDATopics, lda.Vocabulary().Size()), t1)

	// Step 3: control volume (and velocity via the chunked worker pool).
	t2 := time.Now()
	synthetic, err := lda.GenerateParallel(seed+2, docs, 60, workers)
	if err != nil {
		return nil, err
	}
	out.Records = len(synthetic)
	record(3, "control volume/velocity", fmt.Sprintf("%d docs via %d workers", len(synthetic), workers), t2)

	// Step 4: format conversion.
	t3 := time.Now()
	body := synthetic.Text()
	out.FormatBytes = len(body)
	record(4, "format conversion", fmt.Sprintf("plain text, %d bytes", len(body)), t3)

	// Veracity measurement over the produced data.
	rep, err := veracity.Text(raw, synthetic)
	if err != nil {
		return nil, err
	}
	out.Divergence = rep.Score()
	return out, nil
}

// TableDataGenProcess executes Figure 3 for table data: learn per-column
// profiles from the reference table, generate at volume, convert to CSV.
func TableDataGenProcess(seed uint64, rows int64, workers int) (*DataGenOutcome, error) {
	out := &DataGenOutcome{}
	record := func(step int, name, detail string, t0 time.Time) {
		out.Steps = append(out.Steps, DataGenStep{Step: step, Name: name, Detail: detail, Duration: time.Since(t0)})
	}
	t0 := time.Now()
	raw := tablegen.ReferenceTable(seed, 4000)
	record(1, "select real data", fmt.Sprintf("%d rows x %d cols", raw.NumRows(), len(raw.Schema.Cols)), t0)

	t1 := time.Now()
	spec, err := tablegen.BuildSpec(raw, tablegen.VeracityFull, seed+1)
	if err != nil {
		return nil, err
	}
	record(2, "build data model", fmt.Sprintf("%d column profiles", len(spec.Columns)), t1)

	t2 := time.Now()
	syn := spec.GenerateParallel(rows, workers)
	out.Records = syn.NumRows()
	record(3, "control volume/velocity", fmt.Sprintf("%d rows via %d workers", syn.NumRows(), workers), t2)

	t3 := time.Now()
	var sb strings.Builder
	if err := formats.WriteTable(&sb, syn); err != nil {
		return nil, err
	}
	out.FormatBytes = sb.Len()
	record(4, "format conversion", fmt.Sprintf("CSV, %d bytes", sb.Len()), t3)

	rep, err := veracity.Table(raw, syn)
	if err != nil {
		return nil, err
	}
	out.Divergence = rep.Score()
	return out, nil
}
