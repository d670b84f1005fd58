package scenario

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bdbench/bdbench/internal/runstore"
)

func TestRunWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.blob")
	spec := Spec{Name: "artifact-smoke", Entries: []Entry{{Workload: "alpha"}}, Scale: 1, Seed: 11}
	out, err := Run(context.Background(), spec, Options{Registry: testRegistry(t), RunOutput: path, ToolVersion: "test"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	run, err := runstore.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if run.Meta.Kind != runstore.KindScenario || run.Meta.Name != "artifact-smoke" {
		t.Errorf("meta: %+v", run.Meta)
	}
	if run.Meta.Seed != 11 {
		t.Errorf("seed: %d", run.Meta.Seed)
	}
	wantDigest, err := SpecDigest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if run.Meta.SpecDigest != wantDigest {
		t.Errorf("spec digest %q, want %q", run.Meta.SpecDigest, wantDigest)
	}
	if run.Meta.Env.GoVersion == "" || run.Meta.Env.OS == "" {
		t.Errorf("environment not captured: %+v", run.Meta.Env)
	}
	if len(run.Meta.Workloads) != 1 || run.Meta.Workloads[0].Workload != "alpha" {
		t.Fatalf("workload metas: %+v", run.Meta.Workloads)
	}
	if run.Meta.Workloads[0].Throughput <= 0 {
		t.Errorf("workload throughput not recorded: %+v", run.Meta.Workloads[0])
	}
	if len(run.Series) == 0 {
		t.Fatal("no latency streams captured")
	}
	var total int
	for _, s := range run.Series {
		if s.Workload != "alpha" {
			t.Errorf("series workload %q", s.Workload)
		}
		total += len(s.Samples)
	}
	if total == 0 {
		t.Fatal("streams are empty")
	}

	// The payload is the outcome, verbatim: unmarshaling it must reproduce
	// the live outcome's JSON byte for byte.
	var saved Outcome
	if err := json.Unmarshal(run.Meta.Payload, &saved); err != nil {
		t.Fatalf("payload: %v", err)
	}
	liveJSON, _ := json.Marshal(out)
	savedJSON, _ := json.Marshal(&saved)
	if string(liveJSON) != string(savedJSON) {
		t.Error("saved outcome diverges from live outcome")
	}
}

func TestSpecDigestNormalizes(t *testing.T) {
	// Digest is over the normalized spec: writing defaults explicitly must
	// not change identity.
	a := Spec{Entries: []Entry{{Workload: "alpha"}}, Seed: 3}
	b := a
	b = b.Normalized()
	da, _ := SpecDigest(a)
	db, _ := SpecDigest(b)
	if da != db {
		t.Errorf("digest differs between raw and normalized spec: %s vs %s", da, db)
	}
	c := a
	c.Seed = 4
	dc, _ := SpecDigest(c)
	if dc == da {
		t.Error("different seeds share a digest")
	}
}

func TestRunWithoutOutputCapturesNothing(t *testing.T) {
	spec := Spec{Entries: []Entry{{Workload: "alpha"}}, Scale: 1, Seed: 11}
	out, err := Run(context.Background(), spec, Options{Registry: testRegistry(t)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range out.Results {
		if r.Result.Samples != nil {
			t.Fatal("samples captured without RunOutput/SampleCapacity")
		}
	}
}

// TestAppendOutcomeNamesAreUnique: two results of one workload (two entries,
// or a sweep's entry per rate) must not share a series key, or Compare
// would align both with the first. The later result becomes name#2 — in its
// WorkloadMeta and in every one of its series — and unique names stay bare.
func TestAppendOutcomeNamesAreUnique(t *testing.T) {
	spec := Spec{Entries: []Entry{{Workload: "alpha"}, {Workload: "zeta"}, {Workload: "alpha", Scale: 2}}, Seed: 11}
	out, err := Run(context.Background(), spec, Options{Registry: testRegistry(t), SampleCapacity: 64})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	run, err := BuildArtifact(out, "test")
	if err != nil {
		t.Fatal(err)
	}
	var metas []string
	for _, w := range run.Meta.Workloads {
		metas = append(metas, w.Workload)
	}
	if want := []string{"alpha", "zeta", "alpha#2"}; !reflect.DeepEqual(metas, want) {
		t.Fatalf("workload metas %v, want %v", metas, want)
	}
	type key struct {
		workload, op string
		substrate    bool
	}
	seen := map[key]bool{}
	perName := map[string]int{}
	for _, s := range run.Series {
		k := key{s.Workload, s.Op, s.Substrate}
		if seen[k] {
			t.Fatalf("two series share the key %+v", k)
		}
		seen[k] = true
		perName[s.Workload]++
	}
	if perName["alpha"] == 0 || perName["alpha"] != perName["alpha#2"] || perName["zeta"] == 0 {
		t.Fatalf("series per name %v: want the same ops under alpha and alpha#2, and some under zeta", perName)
	}
	if cmp := runstore.Compare(run, run, runstore.CompareOptions{}); cmp.Verdict != runstore.VerdictOK {
		t.Fatalf("self-compare of a run with a repeated workload: %s (%d regressions)", cmp.Verdict, cmp.Regressions)
	}
}
