package opcompose

import (
	"context"
	"strings"
	"testing"
	"time"

	_ "github.com/bdbench/bdbench/internal/datagen/corpora" // register builtin corpora
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// testPattern mixes three primitives over the weblog corpus in two phases.
func testPattern() Pattern {
	return Pattern{
		Name:        "test-mix",
		Corpus:      "weblog",
		OpsPerScale: 600,
		Ops:         []OpWeight{{Op: "filter"}, {Op: "aggregate", Weight: 2}, {Op: "scan"}},
		Phases: []Phase{
			{Name: "load", Ops: []OpWeight{{Op: "put"}, {Op: "get"}}, Fraction: 0.4},
			{Name: "serve"}, // inherits the pattern mix and the remaining 0.6
		},
	}
}

// TestOperationsVocabulary: the primitive vocabulary is listed first in
// canonical order, and every listed operation resolves.
func TestOperationsVocabulary(t *testing.T) {
	names := Operations()
	prim := []string{"filter", "aggregate", "join", "scan", "transform", "put", "get"}
	if len(names) < len(prim) {
		t.Fatalf("Operations() = %v, shorter than the primitive vocabulary", names)
	}
	for i, op := range prim {
		if names[i] != op {
			t.Fatalf("Operations()[%d] = %q, want %q", i, names[i], op)
		}
	}
	for _, name := range names {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("listed operation %q does not resolve", name)
		}
	}
}

// TestPatternNormalized pins the defaulting rules: corpus, ops-per-scale,
// phase names, inherited mixes, unit weights and remainder fractions.
func TestPatternNormalized(t *testing.T) {
	n := testPattern().Normalized()
	if n.Corpus != "weblog" || n.OpsPerScale != 600 {
		t.Fatalf("normalized corpus/opsPerScale = %q/%d", n.Corpus, n.OpsPerScale)
	}
	if len(n.Phases) != 2 {
		t.Fatalf("normalized phases = %d, want 2", len(n.Phases))
	}
	if n.Phases[1].Name != "serve" {
		t.Fatalf("phase 1 name = %q", n.Phases[1].Name)
	}
	if got := n.Phases[1].Fraction; got < 0.6-1e-12 || got > 0.6+1e-12 {
		t.Fatalf("phase 1 fraction = %g, want the 0.6 remainder", got)
	}
	if len(n.Phases[1].Ops) != 3 {
		t.Fatalf("phase 1 inherited %d ops, want 3", len(n.Phases[1].Ops))
	}
	if n.Phases[1].Ops[0].Weight != 1 || n.Phases[1].Ops[1].Weight != 2 {
		t.Fatalf("inherited weights = %+v", n.Phases[1].Ops)
	}
	minimal := Pattern{Ops: []OpWeight{{Op: "scan"}}}.Normalized()
	if minimal.Corpus != DefaultCorpus || minimal.OpsPerScale != DefaultOpsPerScale {
		t.Fatalf("minimal pattern defaults = %q/%d", minimal.Corpus, minimal.OpsPerScale)
	}
	if len(minimal.Phases) != 1 || minimal.Phases[0].Name != "main" || minimal.Phases[0].Fraction != 1 {
		t.Fatalf("minimal pattern phases = %+v", minimal.Phases)
	}
}

// TestPatternValidateErrors covers the rejection paths, including the ones
// only Compile can check (registries).
func TestPatternValidateErrors(t *testing.T) {
	bad := []struct {
		name string
		p    Pattern
		want string
	}{
		{"no ops", Pattern{Name: "x"}, "no operations"},
		{"negative weight", Pattern{Name: "x", Ops: []OpWeight{{Op: "scan", Weight: -1}}}, "negative weight"},
		{"negative rate", Pattern{Name: "x", Ops: []OpWeight{{Op: "scan"}}, Phases: []Phase{{Rate: -5}}}, "negative rate"},
		{"fractions over 1", Pattern{Name: "x", Ops: []OpWeight{{Op: "scan"}},
			Phases: []Phase{{Fraction: 0.7}, {Fraction: 0.7}}}, "fractions sum"},
		{"no share left", Pattern{Name: "x", Ops: []OpWeight{{Op: "scan"}},
			Phases: []Phase{{Fraction: 1}, {}}}, "no share"},
		{"bad category", Pattern{Name: "x", Ops: []OpWeight{{Op: "scan"}}, Category: "interactive"}, "unknown category"},
	}
	for _, tc := range bad {
		err := tc.p.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, tc.p)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := Compile(Pattern{Name: "x", Ops: []OpWeight{{Op: "mystery"}}}); err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Fatalf("Compile accepted an unknown operation: %v", err)
	}
	if _, err := Compile(Pattern{Name: "x", Corpus: "nope", Ops: []OpWeight{{Op: "scan"}}}); err == nil || !strings.Contains(err.Error(), "unknown corpus") {
		t.Fatalf("Compile accepted an unknown corpus: %v", err)
	}
	if _, err := Compile(Pattern{Ops: []OpWeight{{Op: "scan"}}}); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Fatalf("Compile accepted a nameless pattern: %v", err)
	}
}

// runComposed executes the compiled test pattern once and returns the
// snapshot. The collector's clock is frozen so results depend only on the
// seed.
func runComposed(t *testing.T, params workloads.Params) metrics.Result {
	t.Helper()
	w, err := Compile(testPattern())
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollector(w.Name())
	c.SetClock(func() time.Time { return time.Unix(1754600000, 0) })
	if err := w.Run(context.Background(), params, c); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot()
}

// TestComposedDeterministicAcrossWorkers is the package's core guarantee:
// the pattern digest, operation counts and per-phase label set of a
// composed run are identical at any Workers/DatagenWorkers setting —
// parallelism is a pure speed knob, exactly as for the corpus generators.
func TestComposedDeterministicAcrossWorkers(t *testing.T) {
	base := runComposed(t, workloads.Params{Seed: 2014, Scale: 1, Workers: 1, DatagenWorkers: 1})
	for _, par := range []workloads.Params{
		{Seed: 2014, Scale: 1, Workers: 8, DatagenWorkers: 1},
		{Seed: 2014, Scale: 1, Workers: 3, DatagenWorkers: 4},
	} {
		got := runComposed(t, par)
		if got.Counters["pattern_digest"] != base.Counters["pattern_digest"] {
			t.Fatalf("pattern_digest differs at workers=%d/datagen=%d: %d vs %d",
				par.Workers, par.DatagenWorkers, got.Counters["pattern_digest"], base.Counters["pattern_digest"])
		}
		if got.Counters["ops"] != base.Counters["ops"] || got.Counters["records"] != base.Counters["records"] {
			t.Fatalf("counters differ across worker counts: %+v vs %+v", got.Counters, base.Counters)
		}
		if len(got.Ops) != len(base.Ops) {
			t.Fatalf("op cells differ: %d vs %d", len(got.Ops), len(base.Ops))
		}
		for i := range got.Ops {
			if got.Ops[i].Op != base.Ops[i].Op || got.Ops[i].Count != base.Ops[i].Count {
				t.Fatalf("op %q count %d vs %q count %d",
					got.Ops[i].Op, got.Ops[i].Count, base.Ops[i].Op, base.Ops[i].Count)
			}
		}
	}
	// A different seed must change the digest — the digest actually
	// witnesses the computation.
	other := runComposed(t, workloads.Params{Seed: 99, Scale: 1, Workers: 2, DatagenWorkers: 2})
	if other.Counters["pattern_digest"] == base.Counters["pattern_digest"] {
		t.Fatal("pattern_digest identical across different seeds")
	}
}

// TestComposedRecordsPerPhase: operations record under "phase/op" labels,
// ops split across phases by their fractions, and the total matches
// OpsPerScale×Scale.
func TestComposedRecordsPerPhase(t *testing.T) {
	res := runComposed(t, workloads.Params{Seed: 7, Scale: 2, Workers: 4, DatagenWorkers: 2})
	var loadOps, serveOps uint64
	for _, op := range res.Ops {
		switch {
		case strings.HasPrefix(op.Op, "load/"):
			loadOps += op.Count
		case strings.HasPrefix(op.Op, "serve/"):
			serveOps += op.Count
		}
	}
	total := int64(loadOps + serveOps)
	if want := int64(600 * 2); total != want {
		t.Fatalf("recorded %d phase ops, want %d", total, want)
	}
	if res.Counters["ops"] != total {
		t.Fatalf("ops counter %d != recorded %d", res.Counters["ops"], total)
	}
	// The load phase owns 40% of the stream.
	if got := float64(loadOps) / float64(total); got < 0.39 || got > 0.41 {
		t.Fatalf("load phase ran %.2f of the stream, want 0.40", got)
	}
}

// TestPhaseBounds pins the fraction→index arithmetic: bounds are
// monotonic, cover the stream, and rounding lands on the last phase.
func TestPhaseBounds(t *testing.T) {
	phases := []execPhase{{frac: 1.0 / 3}, {frac: 1.0 / 3}, {frac: 1.0 / 3}}
	bounds := phaseBounds(phases, 100)
	if bounds[2] != 100 {
		t.Fatalf("last bound %d, want 100", bounds[2])
	}
	if bounds[0] != 33 || bounds[1] != 67 {
		t.Fatalf("bounds = %v", bounds)
	}
	if phaseAt(bounds, 0) != 0 || phaseAt(bounds, 33) != 1 || phaseAt(bounds, 99) != 2 {
		t.Fatalf("phaseAt misassigns: %d %d %d", phaseAt(bounds, 0), phaseAt(bounds, 33), phaseAt(bounds, 99))
	}
}

// TestOpsDeterministic: every builtin operation's fingerprint stream is a
// pure function of (records, RNG stream) — two contexts with equal state
// produce equal fingerprints.
func TestOpsDeterministic(t *testing.T) {
	records := []string{
		"host1 - - [x] GET /a 200", "host2 - - [x] GET /b 404",
		"host1 - - [x] GET /c 200", "host3 - - [x] GET /d 500",
	}
	for _, name := range Operations() {
		op, _ := Lookup(name)
		a := &OpContext{RNG: stats.NewRNG(5), Records: records, Store: map[uint64]string{}}
		b := &OpContext{RNG: stats.NewRNG(5), Records: records, Store: map[uint64]string{}}
		for i := 0; i < 50; i++ {
			fa, fb := op.Apply(a), op.Apply(b)
			if fa != fb {
				t.Fatalf("%s: fingerprint diverges at step %d: %d vs %d", name, i, fa, fb)
			}
		}
	}
}
