package runstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Verdict is one comparison row's judgement.
type Verdict string

// The comparison verdicts.
const (
	// VerdictOK means the metric moved within the threshold.
	VerdictOK Verdict = "ok"
	// VerdictImproved means the metric moved past the threshold in the
	// good direction.
	VerdictImproved Verdict = "improved"
	// VerdictRegressed means the metric moved past the threshold in the
	// bad direction; any regressed row makes the whole comparison fail.
	VerdictRegressed Verdict = "regressed"
	// VerdictOnlyA and VerdictOnlyB mark rows present in one run only;
	// they never fail a comparison (a renamed workload is visible, not
	// fatal).
	VerdictOnlyA Verdict = "only-in-a"
	VerdictOnlyB Verdict = "only-in-b"
)

// CompareOptions tunes the regression judgement.
type CompareOptions struct {
	// Quantiles are the latency quantiles compared per series
	// (default 0.50, 0.95, 0.99).
	Quantiles []float64
	// LatencyThreshold is the relative increase past which a quantile
	// shift is a regression: B > A × (1 + threshold). Default 0.25.
	LatencyThreshold float64
	// ThroughputThreshold is the relative drop past which a workload's
	// throughput (or achieved rate) is a regression:
	// B < A × (1 − threshold). Default 0.25.
	ThroughputThreshold float64
	// MinDelta is an absolute floor under which a latency shift is never a
	// regression, whatever the ratio — sub-floor quantiles are noise, not
	// signal. Default 0 (pure ratios).
	MinDelta time.Duration
	// MinSamples is the per-series sample floor below which quantile
	// verdicts are informational (VerdictOK) rather than gating.
	// Default 1 (judge everything; bench blobs carry one sample a series).
	MinSamples int
}

func (o CompareOptions) withDefaults() CompareOptions {
	if len(o.Quantiles) == 0 {
		o.Quantiles = []float64{0.50, 0.95, 0.99}
	}
	if o.LatencyThreshold == 0 {
		o.LatencyThreshold = 0.25
	}
	if o.ThroughputThreshold == 0 {
		o.ThroughputThreshold = 0.25
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 1
	}
	return o
}

// QuantileDelta is one latency quantile's movement between runs.
type QuantileDelta struct {
	Q float64 `json:"q"`
	// A and B are the quantile in each run, nanoseconds.
	A int64 `json:"a"`
	B int64 `json:"b"`
	// Ratio is B/A (infinity encoded as 0 when A is 0 and B is not).
	Ratio   float64 `json:"ratio"`
	Verdict Verdict `json:"verdict"`
}

// SeriesDelta compares one (workload, op, substrate) latency stream across
// runs: a user-level stream is never judged against a substrate stream of
// the same label.
// DroppedA and DroppedB count the observations each run's capture buffer
// had no room for: nonzero means the quantiles come from the kept prefix
// of a longer stream, not from all of it.
type SeriesDelta struct {
	Workload  string          `json:"workload"`
	Op        string          `json:"op"`
	Substrate bool            `json:"substrate,omitempty"`
	CountA    int             `json:"countA"`
	CountB    int             `json:"countB"`
	DroppedA  uint64          `json:"droppedA,omitempty"`
	DroppedB  uint64          `json:"droppedB,omitempty"`
	Quantiles []QuantileDelta `json:"quantiles,omitempty"`
	Verdict   Verdict         `json:"verdict"`
}

func (d *SeriesDelta) key() seriesKey { return seriesKey{d.Workload, d.Op, d.Substrate} }

// WorkloadDelta compares one workload's rate metric across runs:
// closed-loop throughput, or achieved rate when both runs were open-loop.
type WorkloadDelta struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"` // "throughput" or "achieved"
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Ratio    float64 `json:"ratio"`
	Verdict  Verdict `json:"verdict"`
}

// RunRef identifies one side of a comparison.
type RunRef struct {
	Path       string `json:"path,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Name       string `json:"name,omitempty"`
	SpecDigest string `json:"specDigest,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Created    int64  `json:"createdUnix,omitempty"`
}

// Comparison is the full outcome of Compare: every aligned workload and
// series judged, regressions counted, one overall verdict.
type Comparison struct {
	A RunRef `json:"a,omitempty"`
	B RunRef `json:"b,omitempty"`
	// SpecMatch reports whether the two runs were produced by the same
	// normalized spec — like-for-like comparability.
	SpecMatch bool `json:"specMatch"`
	// SeedMatch reports whether the runs share a seed.
	SeedMatch   bool            `json:"seedMatch"`
	Workloads   []WorkloadDelta `json:"workloads,omitempty"`
	Series      []SeriesDelta   `json:"series,omitempty"`
	Regressions int             `json:"regressions"`
	Verdict     Verdict         `json:"verdict"`
}

func refOf(r *Run) RunRef {
	return RunRef{
		Kind:       r.Meta.Kind,
		Name:       r.Meta.Name,
		SpecDigest: r.Meta.SpecDigest,
		Seed:       r.Meta.Seed,
		Created:    r.Meta.CreatedUnix,
	}
}

// sortedValues returns a copy of the series' sample values in ascending order.
func (s *Series) sortedValues() []int64 {
	vals := make([]int64, len(s.Samples))
	for i, smp := range s.Samples {
		vals[i] = smp.Value
	}
	slices.Sort(vals)
	return vals
}

// quantileOf returns the q-quantile of ascending vals, zero when there are none.
func quantileOf(vals []int64, q float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}

// Compare judges run b against run a: per-workload throughput deltas from
// the metadata, per-series latency quantile shifts from the raw streams,
// regression verdicts under the options' thresholds. It is pure analysis —
// no I/O — so the CLI, CI and tests all judge identically.
func Compare(a, b *Run, opts CompareOptions) *Comparison {
	opts = opts.withDefaults()
	cmp := &Comparison{
		A:         refOf(a),
		B:         refOf(b),
		SpecMatch: a.Meta.SpecDigest != "" && a.Meta.SpecDigest == b.Meta.SpecDigest,
		SeedMatch: a.Meta.Seed == b.Meta.Seed,
		Verdict:   VerdictOK,
	}
	cmp.Workloads = compareWorkloads(a, b, opts)
	cmp.Series = compareSeries(a, b, opts)
	for _, w := range cmp.Workloads {
		if w.Verdict == VerdictRegressed {
			cmp.Regressions++
		}
	}
	for _, s := range cmp.Series {
		if s.Verdict == VerdictRegressed {
			cmp.Regressions++
		}
	}
	if cmp.Regressions > 0 {
		cmp.Verdict = VerdictRegressed
	}
	return cmp
}

func compareWorkloads(a, b *Run, opts CompareOptions) []WorkloadDelta {
	am := map[string]WorkloadMeta{}
	for _, w := range a.Meta.Workloads {
		am[w.Workload] = w
	}
	seen := map[string]bool{}
	var out []WorkloadDelta
	for _, wb := range b.Meta.Workloads {
		seen[wb.Workload] = true
		wa, ok := am[wb.Workload]
		if !ok {
			out = append(out, WorkloadDelta{Workload: wb.Workload, Metric: "throughput", Verdict: VerdictOnlyB})
			continue
		}
		metric, va, vb := "throughput", wa.Throughput, wb.Throughput
		if wa.Achieved > 0 && wb.Achieved > 0 {
			metric, va, vb = "achieved", wa.Achieved, wb.Achieved
		}
		d := WorkloadDelta{Workload: wb.Workload, Metric: metric, A: va, B: vb, Verdict: VerdictOK}
		if va > 0 {
			d.Ratio = vb / va
			switch {
			case vb < va*(1-opts.ThroughputThreshold):
				d.Verdict = VerdictRegressed
			case vb > va*(1+opts.ThroughputThreshold):
				d.Verdict = VerdictImproved
			}
		}
		out = append(out, d)
	}
	for _, wa := range a.Meta.Workloads {
		if !seen[wa.Workload] {
			out = append(out, WorkloadDelta{Workload: wa.Workload, Metric: "throughput", Verdict: VerdictOnlyA})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}

func compareSeries(a, b *Run, opts CompareOptions) []SeriesDelta {
	am := map[seriesKey]*Series{}
	for i := range a.Series {
		s := &a.Series[i]
		am[s.key()] = s
	}
	seen := map[seriesKey]bool{}
	var out []SeriesDelta
	for i := range b.Series {
		sb := &b.Series[i]
		k := sb.key()
		seen[k] = true
		sa, ok := am[k]
		if !ok {
			out = append(out, SeriesDelta{Workload: sb.Workload, Op: sb.Op, Substrate: sb.Substrate,
				CountB: len(sb.Samples), DroppedB: sb.Dropped, Verdict: VerdictOnlyB})
			continue
		}
		d := SeriesDelta{
			Workload: sb.Workload, Op: sb.Op, Substrate: sb.Substrate,
			CountA: len(sa.Samples), CountB: len(sb.Samples),
			DroppedA: sa.Dropped, DroppedB: sb.Dropped,
			Verdict: VerdictOK,
		}
		gating := len(sa.Samples) >= opts.MinSamples && len(sb.Samples) >= opts.MinSamples
		// Each stream is sorted once, not once per quantile.
		va, vb := sa.sortedValues(), sb.sortedValues()
		for _, q := range opts.Quantiles {
			qa, qb := quantileOf(va, q), quantileOf(vb, q)
			qd := QuantileDelta{Q: q, A: qa, B: qb, Verdict: VerdictOK}
			if qa > 0 {
				qd.Ratio = float64(qb) / float64(qa)
			}
			if gating && qa > 0 {
				switch {
				case float64(qb) > float64(qa)*(1+opts.LatencyThreshold) && qb-qa > int64(opts.MinDelta):
					qd.Verdict = VerdictRegressed
				case float64(qb) < float64(qa)*(1-opts.LatencyThreshold) && qa-qb > int64(opts.MinDelta):
					qd.Verdict = VerdictImproved
				}
			}
			d.Quantiles = append(d.Quantiles, qd)
			switch qd.Verdict {
			case VerdictRegressed:
				d.Verdict = VerdictRegressed
			case VerdictImproved:
				if d.Verdict == VerdictOK {
					d.Verdict = VerdictImproved
				}
			}
		}
		out = append(out, d)
	}
	for i := range a.Series {
		sa := &a.Series[i]
		if !seen[sa.key()] {
			out = append(out, SeriesDelta{Workload: sa.Workload, Op: sa.Op, Substrate: sa.Substrate,
				CountA: len(sa.Samples), DroppedA: sa.Dropped, Verdict: VerdictOnlyA})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key().less(out[j].key()) })
	return out
}

// Err returns a non-nil error when the comparison regressed — the one-line
// summary the CLI exits nonzero with.
func (c *Comparison) Err() error {
	if c.Verdict != VerdictRegressed {
		return nil
	}
	return fmt.Errorf("runstore: %d regression(s) between runs", c.Regressions)
}
