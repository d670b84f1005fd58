// Package opcompose compiles operation patterns into runnable workloads —
// the BigOP argument (arXiv:1401.6628) that a benchmark should *compose*
// workloads from abstract operation patterns over datasets instead of
// enumerating them. A Pattern declares a weighted mix of primitive
// operations (filter, aggregate, join, scan, transform, put, get) over a
// named registered corpus, optionally split into phases with their own
// mixes, fractions and pacing rates; Compile turns it into a synthetic
// workloads.Workload that generates its corpus through the chunked datagen
// pipeline, executes the operation stream chunk-parallel with
// (seed, chunk)-derived RNGs, and records per-phase latencies through
// pre-resolved OpRefs — so a composed workload shards, distributes and
// reproduces exactly like a built-in one.
package opcompose

import (
	"fmt"
	"math"
	"strings"

	"github.com/bdbench/bdbench/internal/workloads"
)

// Defaults applied by Pattern.Normalized.
const (
	// DefaultCorpus is the corpus a pattern runs over when it names none;
	// the weblog corpus doubles as the default trace source for replay
	// arrivals, so the two halves of a composed scenario share one dataset.
	DefaultCorpus = "weblog"
	// DefaultOpsPerScale is the operation count per scale unit.
	DefaultOpsPerScale = 1000
)

// OpWeight is one operation of a mix with its relative weight. A zero
// weight normalizes to 1, so a plain list of ops is a uniform mix.
type OpWeight struct {
	// Op names a primitive operation (see Operations) or an operation
	// registered through Register.
	Op string `json:"op"`
	// Weight is the operation's relative draw weight (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// Phase is one stage of a pattern: a contiguous fraction of the operation
// stream with its own mix and optional pacing.
type Phase struct {
	// Name labels the phase in reports; operations record as "name/op".
	// Empty defaults to "phase<i>".
	Name string `json:"name,omitempty"`
	// Ops is the phase's operation mix; empty inherits the pattern-level
	// mix.
	Ops []OpWeight `json:"ops,omitempty"`
	// Fraction is the share of the operation stream this phase covers, in
	// (0, 1]. Zero-fraction phases split the remainder equally.
	Fraction float64 `json:"fraction,omitempty"`
	// Rate, when positive, paces this phase's operations through a shared
	// token bucket at this many operations/second. Zero runs unpaced.
	Rate float64 `json:"rate,omitempty"`
}

// Pattern declares a composed workload: a mix (or phased sequence of
// mixes) of primitive operations over a registered corpus. The zero value
// of every field defaults through Normalized, mirroring scenario.Spec.
type Pattern struct {
	// Name is the compiled workload's name; the scenario layer derives
	// "composed-<entry>" when empty.
	Name string `json:"name,omitempty"`
	// Corpus names the registered corpus generator supplying the records
	// the operations run over (default "weblog").
	Corpus string `json:"corpus,omitempty"`
	// Ops is the pattern-level operation mix, inherited by phases that
	// declare none.
	Ops []OpWeight `json:"ops,omitempty"`
	// OpsPerScale is the operation count per scale unit (default 1000): a
	// pattern at scale S executes OpsPerScale×S operations.
	OpsPerScale int `json:"opsPerScale,omitempty"`
	// Phases split the operation stream into stages; empty means one phase
	// ("main") running the pattern-level mix over the whole stream.
	Phases []Phase `json:"phases,omitempty"`
	// Category classifies the compiled workload in reports (default
	// "online services").
	Category string `json:"category,omitempty"`
}

// describe renders the pattern for error messages.
func (p Pattern) describe() string {
	ops := make([]string, 0, len(p.Ops))
	for _, ow := range p.Ops {
		ops = append(ops, ow.Op)
	}
	return fmt.Sprintf("pattern %q (corpus=%s ops=[%s] phases=%d)",
		p.Name, p.Corpus, strings.Join(ops, " "), len(p.Phases))
}

// Normalized returns the pattern with every defaultable zero field filled:
// corpus, ops-per-scale, the implicit single phase, phase names, inherited
// phase mixes, unit weights, and phase fractions (explicit fractions keep
// their values; zero-fraction phases split the remainder equally). Like
// scenario.Spec.Normalized it is the single place defaults are applied —
// Compile runs exactly these values and Validate reports them.
func (p Pattern) Normalized() Pattern {
	if p.Corpus == "" {
		p.Corpus = DefaultCorpus
	}
	if p.OpsPerScale == 0 {
		p.OpsPerScale = DefaultOpsPerScale
	}
	if p.Category == "" {
		p.Category = string(workloads.Online)
	}
	phases := make([]Phase, 0, len(p.Phases))
	if len(p.Phases) == 0 {
		phases = append(phases, Phase{Name: "main"})
	} else {
		phases = append(phases, p.Phases...)
	}
	explicit := 0.0
	implicit := 0
	for i := range phases {
		if phases[i].Name == "" {
			phases[i].Name = fmt.Sprintf("phase%d", i)
		}
		if len(phases[i].Ops) == 0 {
			phases[i].Ops = append([]OpWeight(nil), p.Ops...)
		} else {
			phases[i].Ops = append([]OpWeight(nil), phases[i].Ops...)
		}
		for j := range phases[i].Ops {
			if phases[i].Ops[j].Weight == 0 {
				phases[i].Ops[j].Weight = 1
			}
		}
		if phases[i].Fraction > 0 {
			explicit += phases[i].Fraction
		} else {
			implicit++
		}
	}
	if implicit > 0 && explicit < 1 {
		share := (1 - explicit) / float64(implicit)
		for i := range phases {
			if phases[i].Fraction == 0 {
				phases[i].Fraction = share
			}
		}
	}
	p.Phases = phases
	return p
}

// fractionTolerance absorbs float representation error when checking that
// phase fractions cover the stream.
const fractionTolerance = 1e-9

// Validate checks the normalized pattern's shape without touching the
// operation or corpus registries (Compile does both): positive sizes,
// non-negative weights and rates, at least one operation per phase, and
// phase fractions that cover the stream exactly.
func (p Pattern) Validate() error {
	n := p.Normalized()
	if n.OpsPerScale < 0 {
		return fmt.Errorf("opcompose: %s: negative opsPerScale %d", n.describe(), p.OpsPerScale)
	}
	total := 0.0
	for i, ph := range n.Phases {
		if len(ph.Ops) == 0 {
			return fmt.Errorf("opcompose: %s: phase %q has no operations and the pattern declares no mix to inherit",
				n.describe(), ph.Name)
		}
		weight := 0.0
		for _, ow := range ph.Ops {
			if ow.Op == "" {
				return fmt.Errorf("opcompose: %s: phase %q has an operation with no name", n.describe(), ph.Name)
			}
			if ow.Weight < 0 {
				return fmt.Errorf("opcompose: %s: phase %q: negative weight %g for op %q",
					n.describe(), ph.Name, ow.Weight, ow.Op)
			}
			weight += ow.Weight
		}
		if weight == 0 {
			return fmt.Errorf("opcompose: %s: phase %q: all weights are zero", n.describe(), ph.Name)
		}
		if ph.Rate < 0 {
			return fmt.Errorf("opcompose: %s: phase %q: negative rate %g", n.describe(), ph.Name, ph.Rate)
		}
		if ph.Fraction < 0 {
			return fmt.Errorf("opcompose: %s: phase %d (%q): negative fraction %g", n.describe(), i, ph.Name, ph.Fraction)
		}
		if ph.Fraction == 0 {
			return fmt.Errorf("opcompose: %s: phase %d (%q) gets no share of the stream (the explicit fractions already cover it)",
				n.describe(), i, ph.Name)
		}
		total += ph.Fraction
	}
	if math.Abs(total-1) > fractionTolerance {
		return fmt.Errorf("opcompose: %s: phase fractions sum to %g, want 1 (zero fractions split the remainder equally)",
			n.describe(), total)
	}
	switch workloads.Category(n.Category) {
	case workloads.Online, workloads.Offline, workloads.Realtime:
	default:
		return fmt.Errorf("opcompose: %s: unknown category %q (valid: %q, %q, %q)",
			n.describe(), n.Category, workloads.Online, workloads.Offline, workloads.Realtime)
	}
	return nil
}
