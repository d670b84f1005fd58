// Package suites contains executable emulations of the ten big-data
// benchmark efforts surveyed in "On Big Data Benchmarking" (Tables 1 and
// 2): HiBench, GridMix, PigMix, YCSB, the Pavlo performance benchmark,
// TPC-DS, BigBench, LinkBench, CloudSuite and BigDataBench — plus bdbench
// itself as the paper-§5-informed extension row.
//
// Each emulation carries the *capabilities* of the original suite's data
// generators (which data sources, whether data sets scale, which velocity
// knobs exist, how much the generators learn from real data) and its
// workload inventory bound to bdbench's stack substrates. The Table 1 and
// Table 2 reproductions then *derive* every cell from probes and
// measurements over these emulations rather than hard-coding the paper's
// strings; CompareToPaper and CompareTable2ToPaper report where the
// derivation disagrees with the paper.
package suites

import (
	"fmt"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/veracity"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// SourceKind names a data source, Table 1's variety axis.
type SourceKind string

// The data sources appearing in Table 1.
const (
	SourceTable  SourceKind = "tables"
	SourceText   SourceKind = "texts"
	SourceGraph  SourceKind = "graphs"
	SourceWebLog SourceKind = "web logs"
	SourceResume SourceKind = "resumes"
	SourceVideo  SourceKind = "videos"
	SourceStream SourceKind = "streams"
)

// DatasetSpec describes one data set a suite can generate. Fixed data sets
// ignore the scale factor — their presence makes a suite only "partially
// scalable" on the volume axis.
type DatasetSpec struct {
	Name  string
	Kind  SourceKind
	Fixed bool
	// Size returns the data set's size measure (records/edges/bytes) at
	// the given scale factor.
	Size func(sf int) int64
}

// VelocityCaps declares which §2.1 velocity knobs a suite's generators
// expose. The probe verifies declared rate control by measurement.
type VelocityCaps struct {
	// Rate: data generation rate is controllable (parallel generator
	// deployment in the surveyed suites).
	Rate bool
	// UpdateFrequency: the data updating frequency is controllable.
	UpdateFrequency bool
}

// TextApproach is a suite's text generation strategy, ordered by how much
// it learns from real data.
type TextApproach int

// The text approaches across the surveyed suites.
const (
	TextNone        TextApproach = iota // suite has no text source
	TextRandom                          // random words, data-independent (HiBench et al.)
	TextFreqMatched                     // unigram frequencies learned, order ignored
	TextLDA                             // topic model trained on the real corpus (BigDataBench)
)

// TableApproach is a suite's structured-data strategy.
type TableApproach int

// The table approaches across the surveyed suites.
const (
	TableNone     TableApproach = iota
	TableRandom                 // fixed-range synthetic distributions (YCSB)
	TableMoment                 // MUDD-style moment matching (TPC-DS, BigBench)
	TableProfiled               // learned per-column profiles (BigDataBench)
)

// GraphApproach is a suite's graph strategy.
type GraphApproach int

// The graph approaches across the surveyed suites.
const (
	GraphNone    GraphApproach = iota
	GraphRandom                // uniform random graphs
	GraphApprox                // right family, unfitted parameters (LinkBench)
	GraphMatched               // generator matching the reference structure
)

// WorkloadRow is one Table 2 row fragment: a workload category with its
// example workloads and runnable bindings.
type WorkloadRow struct {
	Category workloads.Category
	Examples []string
	Runners  []workloads.Workload
}

// Suite is one emulated benchmark effort.
type Suite struct {
	Name     string
	Ref      string // the paper's citation tag, e.g. "[12]"
	Datasets []DatasetSpec
	Velocity VelocityCaps
	Text     TextApproach
	Table    TableApproach
	Graph    GraphApproach
	// DerivedSources lists semi-structured sources generated *from* other
	// sources (BigBench web logs from tables); they inherit veracity.
	DerivedSources []SourceKind
	Rows           []WorkloadRow
	// SoftwareStacks is the Table 2 stacks cell.
	SoftwareStacks []string
}

// Sources returns the suite's distinct data source kinds in declaration
// order (the Table 1 variety cell).
func (s Suite) Sources() []SourceKind {
	seen := map[SourceKind]bool{}
	var out []SourceKind
	for _, d := range s.Datasets {
		if !seen[d.Kind] {
			seen[d.Kind] = true
			out = append(out, d.Kind)
		}
	}
	return out
}

// Workloads returns all runnable workloads across rows.
func (s Suite) Workloads() []workloads.Workload {
	var out []workloads.Workload
	for _, r := range s.Rows {
		out = append(out, r.Runners...)
	}
	return out
}

// ---- Veracity measurement per approach ----

// VeracityScores carries a measured divergence with its calibration points.
type VeracityScores struct {
	Score      float64 // candidate divergence from raw
	NoiseFloor float64 // independent resample divergence
	Baseline   float64 // veracity-unaware generator divergence
	Level      veracity.Level
}

// classify scores the resample, the veracity-unaware baseline and the
// candidate with one divergence from the raw data, and places the
// candidate between the other two.
func classify[T any](divergence func(T) (float64, error), resample, baseline, candidate T) (VeracityScores, error) {
	floor, err := divergence(resample)
	if err != nil {
		return VeracityScores{}, err
	}
	base, err := divergence(baseline)
	if err != nil {
		return VeracityScores{}, err
	}
	score, err := divergence(candidate)
	if err != nil {
		return VeracityScores{}, err
	}
	return VeracityScores{
		Score: score, NoiseFloor: floor, Baseline: base,
		Level: veracity.ClassifyLog(score, floor, base),
	}, nil
}

// MeasureTextVeracity generates text with the approach and scores it
// against the reference corpus on the bigram JS divergence (word-order
// structure), classifying against a resample floor and a uniform-random
// baseline.
func MeasureTextVeracity(app TextApproach, seed uint64) (VeracityScores, error) {
	if app == TextNone {
		return VeracityScores{}, fmt.Errorf("suites: no text source")
	}
	const docs, meanLen = 200, 60
	raw := textgen.ReferenceCorpus(seed, docs, meanLen)
	resample := textgen.ReferenceCorpus(seed+1, docs, meanLen)
	vocab := textgen.BuildVocabulary(raw)
	baselineCorpus := textgen.RandomText{Dictionary: vocab.Words()}.
		Generate(stats.NewRNG(seed+2), docs, meanLen)

	var candidate textgen.Corpus
	switch app {
	case TextRandom:
		candidate = textgen.RandomText{Dictionary: vocab.Words()}.
			Generate(stats.NewRNG(seed+3), docs, meanLen)
	case TextFreqMatched:
		weights := textgen.WordDistribution(raw, vocab)
		candidate = textgen.RandomText{
			Dictionary: vocab.Words(),
			Sampler:    stats.NewCategorical(weights),
		}.Generate(stats.NewRNG(seed+3), docs, meanLen)
	case TextLDA:
		lda := textgen.NewLDA()
		if err := lda.Train(raw, 30, stats.NewRNG(seed+3)); err != nil {
			return VeracityScores{}, err
		}
		var err error
		candidate, err = lda.Generate(stats.NewRNG(seed+4), docs, meanLen)
		if err != nil {
			return VeracityScores{}, err
		}
	}

	bigramJS := func(c textgen.Corpus) (float64, error) {
		r, err := veracity.Text(raw, c)
		if err != nil {
			return 0, err
		}
		for _, m := range r.Metrics {
			if m.Name == "js_bigram" {
				return m.Value, nil
			}
		}
		return 0, fmt.Errorf("suites: js_bigram metric missing")
	}
	return classify(bigramJS, resample, baselineCorpus, candidate)
}

// MeasureTableVeracity scores the approach's synthetic table against the
// reference orders table on mean column divergence.
func MeasureTableVeracity(app TableApproach, seed uint64) (VeracityScores, error) {
	if app == TableNone {
		return VeracityScores{}, fmt.Errorf("suites: no table source")
	}
	const rows = 4000
	raw := tablegen.ReferenceTable(seed, rows)
	resample := tablegen.ReferenceTable(seed+1, rows)

	level := tablegen.VeracityNone
	switch app {
	case TableMoment:
		level = tablegen.VeracityPartial
	case TableProfiled:
		level = tablegen.VeracityFull
	}
	baseSpec, err := tablegen.BuildSpec(raw, tablegen.VeracityNone, seed+2)
	if err != nil {
		return VeracityScores{}, err
	}
	candSpec, err := tablegen.BuildSpec(raw, level, seed+3)
	if err != nil {
		return VeracityScores{}, err
	}
	divergence := func(t *data.Table) (float64, error) {
		r, err := veracity.Table(raw, t)
		if err != nil {
			return 0, err
		}
		return r.Score(), nil
	}
	return classify(divergence, resample, baseSpec.Generate(rows), candSpec.Generate(rows))
}

// MeasureGraphVeracity scores the approach's graph against the reference
// RMAT graph on the degree-distribution KS statistic.
func MeasureGraphVeracity(app GraphApproach, seed uint64) (VeracityScores, error) {
	if app == GraphNone {
		return VeracityScores{}, fmt.Errorf("suites: no graph source")
	}
	const scale = 11
	raw := graphgen.DefaultRMAT.Generate(stats.NewRNG(seed), scale)
	resample := graphgen.DefaultRMAT.Generate(stats.NewRNG(seed+1), scale)
	baseline := graphgen.ErdosRenyi{EdgeFactor: 16}.Generate(stats.NewRNG(seed+2), scale)

	var candidate *graphgen.Graph
	switch app {
	case GraphRandom:
		candidate = graphgen.ErdosRenyi{EdgeFactor: 16}.Generate(stats.NewRNG(seed+3), scale)
	case GraphApprox:
		// Right family, unfitted parameters: skew is present but softer
		// than the reference.
		gen := graphgen.RMAT{A: 0.54, B: 0.20, C: 0.20, EdgeFactor: 16}
		candidate = gen.Generate(stats.NewRNG(seed+3), scale)
	case GraphMatched:
		candidate = graphgen.DefaultRMAT.Generate(stats.NewRNG(seed+3), scale)
	}
	ks := func(g *graphgen.Graph) (float64, error) {
		r, err := veracity.Graph(raw, g)
		if err != nil {
			return 0, err
		}
		return r.Score(), nil
	}
	return classify(ks, resample, baseline, candidate)
}
