// Package datagen is the public facade over bdbench's 4V data-generation
// substrate: the seeded RNG and rate measurement here, plus one
// subpackage per source family (textgen, tablegen, graphgen, streamgen,
// weblog) and the §5.1 veracity metrics (veracity).
//
// Every type is an alias of its internal counterpart, so values
// interoperate directly with the bdbench public API and across facades.
package datagen

import (
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// RNG is bdbench's deterministic random number generator; every generator
// takes one, so equal seeds give equal data.
type RNG = stats.RNG

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// Zipf samples [0, Count) with zipfian skew S.
type Zipf = stats.Zipf

// ScrambledZipf is Zipf with the popularity ranking scrambled across the
// key space (YCSB-style).
type ScrambledZipf = stats.ScrambledZipf

// RateProbe measures an achieved generation rate.
type RateProbe = datagen.RateProbe

// NewRateProbe returns a probe counting from now.
func NewRateProbe() *RateProbe { return datagen.NewRateProbe() }
