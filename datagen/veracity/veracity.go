// Package veracity is the public facade over bdbench's §5.1 data-veracity
// metrics: divergence measurements of synthetic data against its reference
// for every source family.
package veracity

import (
	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/veracity"
)

// Metric is one named divergence measurement.
type Metric = veracity.Metric

// Report is a set of metrics with a combined Score.
type Report = veracity.Report

// Level classifies a measured score against its calibration points.
type Level = veracity.Level

// The veracity levels of Table 1.
const (
	LevelUnconsidered = veracity.LevelUnconsidered
	LevelPartial      = veracity.LevelPartial
	LevelConsidered   = veracity.LevelConsidered
)

// Text scores a synthetic corpus against the raw one.
func Text(raw, syn textgen.Corpus) (Report, error) { return veracity.Text(raw, syn) }

// Table scores a synthetic table against the raw one, column by column.
func Table(raw, syn *data.Table) (Report, error) { return veracity.Table(raw, syn) }
