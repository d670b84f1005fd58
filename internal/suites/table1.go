package suites

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/veracity"
	"github.com/bdbench/bdbench/internal/stats"
)

// This file derives the paper's Table 1 ("Comparison of data generation
// techniques in existing big data benchmarks") from executable probes over
// the suite emulations. Each probe returns both the classification and the
// measured evidence behind it.

// VolumeClass is the Table 1 volume cell.
type VolumeClass string

// The volume classes.
const (
	VolumeScalable  VolumeClass = "Scalable"
	VolumePartially VolumeClass = "Partially scalable"
)

// VelocityClass is the Table 1 velocity cell (plus the §5.1 "fully
// controllable" level bdbench adds).
type VelocityClass string

// The velocity classes.
const (
	VelocityUncontrollable   VelocityClass = "Un-controllable"
	VelocitySemiControllable VelocityClass = "Semi-controllable"
	VelocityFullControllable VelocityClass = "Fully controllable"
)

// VolumeEvidence records the scaling probe per data set.
type VolumeEvidence struct {
	Dataset string
	SizeSF1 int64
	SizeSF4 int64
	Scales  bool
}

// ProbeVolume generates size measures at scale factors 1 and 4 and
// classifies: scalable if every data set grows proportionally, partially
// scalable if any data set is fixed.
func ProbeVolume(s Suite) (VolumeClass, []VolumeEvidence) {
	var ev []VolumeEvidence
	anyFixed := false
	for _, d := range s.Datasets {
		s1, s4 := d.Size(1), d.Size(4)
		scales := s4 >= 3*s1 // proportional growth within rounding
		if !scales {
			anyFixed = true
		}
		ev = append(ev, VolumeEvidence{Dataset: d.Name, SizeSF1: s1, SizeSF4: s4, Scales: scales})
	}
	if anyFixed {
		return VolumePartially, ev
	}
	return VolumeScalable, ev
}

// VelocityEvidence records the rate/update-frequency probe measurements.
type VelocityEvidence struct {
	RateLowTarget   float64
	RateLowAchieved float64
	RateHiTarget    float64
	RateHiAchieved  float64
	UpdateTarget    float64
	UpdateAchieved  float64
}

// ProbeVelocity verifies each declared velocity knob by measurement: rate
// control by pacing generation at two targets and checking the achieved
// ratio, update-frequency control by generating a stream at a target update
// mix and checking the achieved fraction. Declared-but-unverifiable knobs
// cause an error rather than a silently wrong cell.
func ProbeVelocity(s Suite) (VelocityClass, VelocityEvidence, error) {
	var ev VelocityEvidence
	if !s.Velocity.Rate && !s.Velocity.UpdateFrequency {
		return VelocityUncontrollable, ev, nil
	}
	if s.Velocity.Rate {
		low, hi := 5000.0, 20000.0
		// The rate-paced generator itself is what is measured: n events
		// through streamgen.Generator.Run, drained as they are emitted.
		measure := func(rate float64, n int64) (float64, error) {
			events := make(chan streamgen.Event)
			go func() {
				for range events {
				}
			}()
			ctx := context.Background() //bdvet:allow ctxbg -- the probe has no caller context; n bounds the run at a quarter second
			return streamgen.Generator{EventsPerSec: rate, Arrival: streamgen.ArrivalConstant}.Run(ctx, stats.NewRNG(12345), n, events)
		}
		var err error
		ev.RateLowTarget, ev.RateHiTarget = low, hi
		if ev.RateLowAchieved, err = measure(low, 1200); err != nil {
			return "", ev, err
		}
		if ev.RateHiAchieved, err = measure(hi, 4800); err != nil {
			return "", ev, err
		}
		ratio := ev.RateHiAchieved / ev.RateLowAchieved
		if ratio < 2.5 || ratio > 6.5 {
			return "", ev, fmt.Errorf("suites: %s declares rate control but achieved ratio %.2f (want ~4)", s.Name, ratio)
		}
	}
	if s.Velocity.UpdateFrequency {
		target := 0.35
		gen := streamgen.Generator{EventsPerSec: 100000, Mix: streamgen.Mix{UpdateFraction: target}}
		events := gen.Generate(stats.NewRNG(12345), 20000)
		updates := 0
		for _, e := range events {
			if e.Kind == streamgen.OpUpdate {
				updates++
			}
		}
		ev.UpdateTarget = target
		ev.UpdateAchieved = float64(updates) / float64(len(events))
		if ev.UpdateAchieved < target-0.03 || ev.UpdateAchieved > target+0.03 {
			return "", ev, fmt.Errorf("suites: %s declares update-frequency control but achieved %.3f (want %.2f)", s.Name, ev.UpdateAchieved, target)
		}
		return VelocityFullControllable, ev, nil
	}
	return VelocitySemiControllable, ev, nil
}

// SourceVeracity records the per-source measurement behind the veracity
// cell.
type SourceVeracity struct {
	Source SourceKind
	Scores VeracityScores
}

// ProbeVeracity measures each modeled source and combines: the suite's
// level is the best level any of its (non-derived) generators achieves;
// derived sources inherit and therefore never raise it.
func ProbeVeracity(s Suite, seed uint64) (veracity.Level, []SourceVeracity, error) {
	level := veracity.LevelUnconsidered
	var details []SourceVeracity
	raise := func(l veracity.Level) {
		if rank(l) > rank(level) {
			level = l
		}
	}
	if s.Text != TextNone {
		sc, err := MeasureTextVeracity(s.Text, seed)
		if err != nil {
			return "", nil, err
		}
		details = append(details, SourceVeracity{Source: SourceText, Scores: sc})
		raise(sc.Level)
	}
	if s.Table != TableNone {
		sc, err := MeasureTableVeracity(s.Table, seed)
		if err != nil {
			return "", nil, err
		}
		details = append(details, SourceVeracity{Source: SourceTable, Scores: sc})
		raise(sc.Level)
	}
	if s.Graph != GraphNone {
		sc, err := MeasureGraphVeracity(s.Graph, seed)
		if err != nil {
			return "", nil, err
		}
		details = append(details, SourceVeracity{Source: SourceGraph, Scores: sc})
		raise(sc.Level)
	}
	return level, details, nil
}

func rank(l veracity.Level) int {
	switch l {
	case veracity.LevelConsidered:
		return 2
	case veracity.LevelPartial:
		return 1
	default:
		return 0
	}
}

// Table1Row is one derived row of the Table 1 reproduction.
type Table1Row struct {
	Benchmark string
	Ref       string
	Volume    VolumeClass
	Velocity  VelocityClass
	Variety   []SourceKind
	Veracity  veracity.Level

	VolumeEvidence   []VolumeEvidence
	VelocityEvidence VelocityEvidence
	VeracityEvidence []SourceVeracity
	Elapsed          time.Duration
}

// DeriveTable1 probes every suite and returns the derived table in the
// paper's row order (bdbench appended last).
func DeriveTable1(seed uint64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, s := range All() {
		t0 := time.Now()
		row := Table1Row{Benchmark: s.Name, Ref: s.Ref, Variety: s.Sources()}
		row.Volume, row.VolumeEvidence = ProbeVolume(s)
		var err error
		row.Velocity, row.VelocityEvidence, err = ProbeVelocity(s)
		if err != nil {
			return nil, err
		}
		row.Veracity, row.VeracityEvidence, err = ProbeVeracity(s, seed)
		if err != nil {
			return nil, err
		}
		row.Elapsed = time.Since(t0)
		rows = append(rows, row)
	}
	return rows, nil
}

// PaperTable1 returns the cells the paper publishes, keyed by suite name,
// for agreement checking. Variety sets are order-insensitive.
func PaperTable1() map[string]Table1Row {
	mk := func(vol VolumeClass, vel VelocityClass, veracityLevel veracity.Level, sources ...SourceKind) Table1Row {
		return Table1Row{Volume: vol, Velocity: vel, Veracity: veracityLevel, Variety: sources}
	}
	return map[string]Table1Row{
		"HiBench":                       mk(VolumePartially, VelocityUncontrollable, veracity.LevelUnconsidered, SourceText),
		"GridMix":                       mk(VolumeScalable, VelocityUncontrollable, veracity.LevelUnconsidered, SourceText),
		"PigMix":                        mk(VolumeScalable, VelocityUncontrollable, veracity.LevelUnconsidered, SourceText),
		"YCSB":                          mk(VolumeScalable, VelocityUncontrollable, veracity.LevelUnconsidered, SourceTable),
		"Performance benchmark (Pavlo)": mk(VolumeScalable, VelocityUncontrollable, veracity.LevelUnconsidered, SourceTable, SourceText),
		"TPC-DS":                        mk(VolumeScalable, VelocitySemiControllable, veracity.LevelPartial, SourceTable),
		"BigBench":                      mk(VolumeScalable, VelocitySemiControllable, veracity.LevelPartial, SourceText, SourceWebLog, SourceTable),
		"LinkBench":                     mk(VolumePartially, VelocitySemiControllable, veracity.LevelPartial, SourceGraph),
		"CloudSuite":                    mk(VolumePartially, VelocitySemiControllable, veracity.LevelPartial, SourceText, SourceGraph, SourceVideo, SourceTable),
		"BigDataBench":                  mk(VolumeScalable, VelocitySemiControllable, veracity.LevelConsidered, SourceText, SourceResume, SourceGraph, SourceTable),
	}
}

// sameSources compares variety sets order-insensitively.
func sameSources(a, b []SourceKind) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = string(a[i])
	}
	for i := range b {
		bs[i] = string(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// CompareToPaper checks derived rows against the paper's published cells
// and returns a list of disagreements (empty = full agreement). The bdbench
// row has no paper counterpart and is skipped.
func CompareToPaper(rows []Table1Row) []string {
	paper := PaperTable1()
	var diffs []string
	for _, row := range rows {
		want, ok := paper[row.Benchmark]
		if !ok {
			continue
		}
		if row.Volume != want.Volume {
			diffs = append(diffs, fmt.Sprintf("%s: volume %s, paper says %s", row.Benchmark, row.Volume, want.Volume))
		}
		if row.Velocity != want.Velocity {
			diffs = append(diffs, fmt.Sprintf("%s: velocity %s, paper says %s", row.Benchmark, row.Velocity, want.Velocity))
		}
		if !sameSources(row.Variety, want.Variety) {
			diffs = append(diffs, fmt.Sprintf("%s: variety %v, paper says %v", row.Benchmark, row.Variety, want.Variety))
		}
		if row.Veracity != want.Veracity {
			diffs = append(diffs, fmt.Sprintf("%s: veracity %s, paper says %s", row.Benchmark, row.Veracity, want.Veracity))
		}
	}
	return diffs
}

// FormatTable1 renders the derived table as aligned text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s  %-19s  %-18s  %-38s  %s\n", "Benchmark efforts", "Volume", "Velocity", "Variety (data sources)", "Veracity")
	for _, r := range rows {
		kinds := make([]string, len(r.Variety))
		for i, k := range r.Variety {
			kinds[i] = string(k)
		}
		fmt.Fprintf(&b, "%-30s  %-19s  %-18s  %-38s  %s\n",
			r.Benchmark, r.Volume, r.Velocity, strings.Join(kinds, ", "), r.Veracity)
	}
	return b.String()
}
