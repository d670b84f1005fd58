package bdbench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/report"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
)

// Run artifacts: the durable form of a benchmark run. WithRunOutput makes
// Run persist its full per-op latency streams and metadata as a versioned
// columnar blob (see docs/RESULTS.md for the format); ReadRun loads any
// saved blob back; RenderRun re-renders it through the same reporters a
// live run uses; CompareRuns judges one run against another — the engine
// behind `bdbench compare`.

// RunArtifact is one decoded run artifact: metadata (spec digest, seed,
// environment, per-workload summaries, the writer's full result document)
// plus the captured per-op latency streams.
type RunArtifact = runstore.Run

// RunMeta is a run artifact's metadata block.
type RunMeta = runstore.Meta

// RunSeries is one operation's captured latency stream within an artifact.
type RunSeries = runstore.Series

// RunSample is one captured observation: nanosecond offset and latency.
type RunSample = runstore.Sample

// RunComparison is the full outcome of CompareRuns: per-workload rate
// deltas, per-stream quantile shifts, regression verdicts.
type RunComparison = runstore.Comparison

// CompareOptions tunes CompareRuns' regression thresholds.
type CompareOptions = runstore.CompareOptions

// The comparison verdicts (RunComparison and its rows).
const (
	VerdictOK        = runstore.VerdictOK
	VerdictImproved  = runstore.VerdictImproved
	VerdictRegressed = runstore.VerdictRegressed
)

// WithRunOutput makes the run a durable artifact: raw per-op latency
// capture is enabled for every measured repetition, and the finished
// outcome — full latency streams, spec digest, seed, environment, and the
// complete result document — is written to path as a versioned columnar
// blob. The blob is written even when workloads fail. Read it back with
// ReadRun, re-render it with RenderRun, diff it with CompareRuns or
// `bdbench compare`.
func WithRunOutput(path string) Option {
	return func(o *scenario.Options) { o.RunOutput = path }
}

// DefaultSampleCapacity is the per-operation-cell raw-capture bound used
// when WithRunOutput is given without WithSamples. It is a ceiling, not a
// reservation: capture memory follows what a cell observed.
const DefaultSampleCapacity = metrics.DefaultSampleCapacity

// WithSamples bounds (or, without WithRunOutput, enables) raw latency
// capture: at most capacity samples are kept per operation cell per
// repetition; observations past that are counted as dropped. Zero keeps
// the default (65536 per cell). A cell's buffer grows with its observations
// up to the bound, so a high bound costs nothing until a cell reaches it.
// The streams surface on each
// WorkloadResult's Result.Samples and in the artifact's series.
func WithSamples(capacity int) Option {
	return func(o *scenario.Options) { o.SampleCapacity = capacity }
}

// ReadRun reads and decodes the run artifact at path. Decoding is
// defensive: truncated, corrupted (CRC-checked) and wrong-version blobs
// return errors.
func ReadRun(path string) (*RunArtifact, error) { return runstore.ReadFile(path) }

// WriteRun encodes and writes a run artifact to path.
func WriteRun(path string, r *RunArtifact) error { return runstore.WriteFile(path, r) }

// RenderRun re-renders a saved run artifact in the named format ("text",
// "markdown", "json") — the same reporters a live run uses, fed from the
// artifact's embedded result document.
func RenderRun(w io.Writer, r *RunArtifact, format string) error {
	return report.RenderRun(w, r, format)
}

// RunInfo returns a one-line identity summary of a run artifact — kind,
// name, writing tool, seed, spec-digest prefix, creation time and series
// count. `bdbench compare` prints it above the delta tables.
func RunInfo(r *RunArtifact) string { return report.RunInfo(r) }

// CorpusArtifact converts a standalone corpus generation into a run
// artifact: the full DataGenStat as the payload and the corpus digest in
// the metadata (`RunMeta.Corpora`) — a durable provenance record for a
// generated dataset, written by `bdbench datagen -out`. Corpus bytes are
// identical at any worker count, so two artifacts with equal digests
// generated identical corpora regardless of parallelism.
func CorpusArtifact(stat DataGenStat) (*RunArtifact, error) {
	payload, err := json.Marshal(stat)
	if err != nil {
		return nil, fmt.Errorf("bdbench: marshal datagen stat: %w", err)
	}
	return &RunArtifact{
		Meta: RunMeta{
			Kind:        runstore.KindCorpus,
			Name:        "datagen " + stat.Generator,
			Tool:        "bdbench",
			ToolVersion: Version,
			Seed:        stat.Seed,
			CreatedUnix: time.Now().Unix(),
			Env:         scenario.CaptureEnv(),
			Corpora:     []runstore.Corpus{{Name: stat.Generator, Digest: stat.Digest}},
			Payload:     payload,
		},
	}, nil
}

// CompareRuns judges run b against run a under the options' thresholds:
// per-workload throughput (or achieved-rate) deltas from the metadata,
// per-stream latency quantile shifts recomputed from the raw streams.
// Check RunComparison.Verdict (or .Err()) for the overall outcome.
func CompareRuns(a, b *RunArtifact, opts CompareOptions) *RunComparison {
	return runstore.Compare(a, b, opts)
}

// FormatComparison renders a comparison in the named format ("text",
// "markdown", "json").
func FormatComparison(c *RunComparison, format string) (string, error) {
	return report.FormatComparison(c, format)
}

// SpecDigest returns the hex SHA-256 of the scenario's normalized spec —
// the identity under which runs are comparable like-for-like. Two artifacts
// with equal Meta.SpecDigest ran the same scenario configuration.
func SpecDigest(s Scenario) (string, error) { return scenario.SpecDigest(s) }
