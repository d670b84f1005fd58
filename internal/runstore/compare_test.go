package runstore

import (
	"testing"
	"time"
)

func TestCompareSelfIsClean(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	cmp := Compare(a, b, CompareOptions{})
	if cmp.Verdict != VerdictOK || cmp.Regressions != 0 {
		t.Fatalf("self-comparison: verdict %s, %d regressions", cmp.Verdict, cmp.Regressions)
	}
	if !cmp.SpecMatch || !cmp.SeedMatch {
		t.Errorf("self-comparison: SpecMatch=%v SeedMatch=%v", cmp.SpecMatch, cmp.SeedMatch)
	}
	if cmp.Err() != nil {
		t.Errorf("Err() on clean comparison: %v", cmp.Err())
	}
}

// scaleSamples multiplies every sample value: a synthetic, perfectly
// controlled performance shift.
func scaleSamples(r *Run, factor float64) {
	for i := range r.Series {
		for j := range r.Series[i].Samples {
			r.Series[i].Samples[j].Value = int64(float64(r.Series[i].Samples[j].Value) * factor)
		}
	}
}

func TestCompareFlagsInjectedShift(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	scaleSamples(b, 1.30) // the ISSUE's +30% synthetic p99 shift
	cmp := Compare(a, b, CompareOptions{LatencyThreshold: 0.15})
	if cmp.Verdict != VerdictRegressed || cmp.Regressions == 0 {
		t.Fatalf("+30%% shift with 15%% threshold: verdict %s, %d regressions", cmp.Verdict, cmp.Regressions)
	}
	if cmp.Err() == nil {
		t.Error("Err() nil on regressed comparison")
	}
	// Every quantile, not just p99, shifted by 30% — check p99 specifically.
	var sawP99 bool
	for _, s := range cmp.Series {
		for _, q := range s.Quantiles {
			if q.Q == 0.99 && q.Verdict == VerdictRegressed {
				sawP99 = true
			}
		}
	}
	if !sawP99 {
		t.Error("no p99 quantile flagged regressed")
	}
}

func TestCompareShiftUnderThresholdPasses(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	scaleSamples(b, 1.10)
	cmp := Compare(a, b, CompareOptions{LatencyThreshold: 0.25})
	if cmp.Verdict != VerdictOK {
		t.Fatalf("10%% shift with 25%% threshold regressed: %d regressions", cmp.Regressions)
	}
}

func TestCompareImprovement(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	scaleSamples(b, 0.5)
	cmp := Compare(a, b, CompareOptions{})
	if cmp.Verdict != VerdictOK {
		t.Fatalf("improvement judged as regression (%d regressions)", cmp.Regressions)
	}
	var improved bool
	for _, s := range cmp.Series {
		if s.Verdict == VerdictImproved {
			improved = true
		}
	}
	if !improved {
		t.Error("halved latencies produced no improved series")
	}
}

func TestCompareMinDeltaSuppressesTinyShifts(t *testing.T) {
	mk := func(v int64) *Run {
		return &Run{Meta: Meta{Kind: KindScenario}, Series: []Series{{
			Workload: "w", Op: "o",
			Samples: []Sample{{Offset: 0, Value: v}, {Offset: 1, Value: v}, {Offset: 2, Value: v}},
		}}}
	}
	// 100ns → 200ns is a 2x ratio but only 100ns absolute — under a 1ms
	// floor it must not gate.
	cmp := Compare(mk(100), mk(200), CompareOptions{MinDelta: time.Millisecond})
	if cmp.Verdict != VerdictOK {
		t.Fatalf("sub-MinDelta shift regressed")
	}
	cmp = Compare(mk(100), mk(200), CompareOptions{})
	if cmp.Verdict != VerdictRegressed {
		t.Fatalf("2x shift with no MinDelta not flagged")
	}
}

func TestCompareThroughputDrop(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	for i := range b.Meta.Workloads {
		b.Meta.Workloads[i].Throughput *= 0.5
	}
	cmp := Compare(a, b, CompareOptions{})
	if cmp.Verdict != VerdictRegressed {
		t.Fatal("halved throughput not flagged")
	}
	var tputRegressions int
	for _, w := range cmp.Workloads {
		if w.Verdict == VerdictRegressed {
			tputRegressions++
		}
	}
	if tputRegressions != len(a.Meta.Workloads) {
		t.Errorf("throughput regressions: got %d want %d", tputRegressions, len(a.Meta.Workloads))
	}
}

func TestCompareDisjointRunsDoNotFail(t *testing.T) {
	a := &Run{Meta: Meta{Workloads: []WorkloadMeta{{Workload: "old", Throughput: 1}}},
		Series: []Series{{Workload: "old", Op: "o", Samples: []Sample{{Value: 1}}}}}
	b := &Run{Meta: Meta{Workloads: []WorkloadMeta{{Workload: "new", Throughput: 1}}},
		Series: []Series{{Workload: "new", Op: "o", Samples: []Sample{{Value: 1}}}}}
	cmp := Compare(a, b, CompareOptions{})
	if cmp.Verdict != VerdictOK {
		t.Fatalf("disjoint runs judged regressed")
	}
	var onlyA, onlyB int
	for _, w := range cmp.Workloads {
		switch w.Verdict {
		case VerdictOnlyA:
			onlyA++
		case VerdictOnlyB:
			onlyB++
		}
	}
	if onlyA != 1 || onlyB != 1 {
		t.Errorf("only-in verdicts: %d/%d", onlyA, onlyB)
	}
}

func TestCompareMinSamples(t *testing.T) {
	mk := func(v int64) *Run {
		return &Run{Series: []Series{{Workload: "w", Op: "o", Samples: []Sample{{Value: v}}}}}
	}
	cmp := Compare(mk(100), mk(1000), CompareOptions{MinSamples: 10})
	if cmp.Verdict != VerdictOK {
		t.Fatal("single-sample series gated despite MinSamples=10")
	}
	cmp = Compare(mk(100), mk(1000), CompareOptions{})
	if cmp.Verdict != VerdictRegressed {
		t.Fatal("default MinSamples should judge single-sample series (bench blobs)")
	}
}

func TestCompareOpenLoopUsesAchieved(t *testing.T) {
	mk := func(ach float64) *Run {
		return &Run{Meta: Meta{Workloads: []WorkloadMeta{{Workload: "w", Throughput: 99, Achieved: ach, Offered: 100}}}}
	}
	cmp := Compare(mk(100), mk(40), CompareOptions{})
	if cmp.Verdict != VerdictRegressed {
		t.Fatal("achieved-rate drop not flagged")
	}
	if cmp.Workloads[0].Metric != "achieved" {
		t.Errorf("metric = %q, want achieved", cmp.Workloads[0].Metric)
	}
}

// TestCompareKeysOnSubstrate: a user-level and a substrate-level stream under
// one label are two series, aligned and reported apart, in canonical order
// (user before substrate) whatever order the runs hold them in.
func TestCompareKeysOnSubstrate(t *testing.T) {
	mk := func(user, sub int64) *Run {
		return &Run{Series: []Series{ // substrate first: the rows must not follow input order
			{Workload: "w", Op: "request", Substrate: true, Samples: []Sample{{Value: sub}}},
			{Workload: "w", Op: "request", Samples: []Sample{{Value: user}}},
		}}
	}
	verdicts := func(c *Comparison) (user, sub Verdict) {
		if len(c.Series) != 2 || c.Series[0].Substrate || !c.Series[1].Substrate {
			t.Fatalf("rows %+v, want the user row then the substrate row", c.Series)
		}
		return c.Series[0].Verdict, c.Series[1].Verdict
	}
	ms := int64(time.Millisecond)
	if u, s := verdicts(Compare(mk(ms, 100*ms), mk(50*ms, 100*ms), CompareOptions{})); u != VerdictRegressed || s != VerdictOK {
		t.Errorf("user stream 1ms -> 50ms: user %s, substrate %s; want regressed, ok", u, s)
	}
	if u, s := verdicts(Compare(mk(ms, 100*ms), mk(ms, 200*ms), CompareOptions{})); u != VerdictOK || s != VerdictRegressed {
		t.Errorf("substrate stream 100ms -> 200ms: user %s, substrate %s; want ok, regressed", u, s)
	}

	a := &Run{Series: []Series{{Workload: "w", Op: "request", Substrate: true, Samples: []Sample{{Value: ms}}}}}
	b := &Run{Series: []Series{{Workload: "w", Op: "request", Samples: []Sample{{Value: ms}}}}}
	if u, s := verdicts(Compare(a, b, CompareOptions{})); u != VerdictOnlyB || s != VerdictOnlyA {
		t.Errorf("one level per run: user %s, substrate %s; want only-in-b, only-in-a", u, s)
	}
}
