// Package datagen is the public facade over bdbench's 4V data-generation
// substrate: rate measurement and the chunked-build utilities here, plus one
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

// Chunk is one independent unit of a chunked generation plan.
type Chunk = datagen.Chunk

// Chunked is a named corpus generator family that plans its output as
// independent chunks; register custom families with Register.
type Chunked = datagen.Chunked

// Stat reports one Build's shape, timing and corpus digest.
type Stat = datagen.Stat

// PlanChunks splits total items into consecutive chunks of at most size
// items (a default size when size <= 0).
func PlanChunks(total, size int64) []Chunk { return datagen.PlanChunks(total, size) }

// Build runs a Chunked generator's full plan on a bounded worker pool and
// returns the assembled corpus with its Stat; bytes and digest depend only
// on (generator, seed, scale), never on the worker count.
func Build(cg Chunked, seed uint64, scale, workers int) ([]byte, Stat, error) {
	return datagen.Build(cg, seed, scale, workers)
}

// Register adds a corpus generator family under its Name.
func Register(cg Chunked) { datagen.Register(cg) }

// Lookup returns the named corpus generator family.
func Lookup(name string) (Chunked, bool) { return datagen.Lookup(name) }

// Generators returns the registered corpus generator names, sorted.
func Generators() []string { return datagen.Generators() }
