package scenario

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/runstore"
)

var updateV2Golden = flag.Bool("update", false, "rewrite testdata/spec.v2.golden.json from the canonical v2 spec")

const v2GoldenPath = "testdata/spec.v2.golden.json"

// v2Spec is the canonical Spec v2 example: a composed pattern entry next
// to a registry selection, under a trace-replayed open-loop load. Engine
// parallelism knobs are pinned so the normalized form is machine-
// independent.
func v2Spec() Spec {
	return Spec{
		SpecVersion: 2,
		Name:        "composed",
		Entries: []Entry{
			{Pattern: &opcompose.Pattern{
				Name:   "serve-mix",
				Corpus: "weblog",
				Ops:    []opcompose.OpWeight{{Op: "filter", Weight: 2}, {Op: "get"}, {Op: "put"}},
				Phases: []opcompose.Phase{
					{Name: "load", Ops: []opcompose.OpWeight{{Op: "put"}}, Fraction: 0.25},
					{Name: "serve"},
				},
			}},
			{Workload: "alpha", Scale: 2},
		},
		Scale:          1,
		Workers:        2,
		DatagenWorkers: 2,
		Parallel:       2,
		Seed:           2014,
		Rate:           50,
		Arrival:        "replay",
		Duration:       Duration(time.Second),
	}
}

// TestSpecV2RoundTrip verifies the v2 fields — specVersion, trace, pattern
// entries with phases — survive JSON round-tripping exactly.
func TestSpecV2RoundTrip(t *testing.T) {
	s := v2Spec()
	s.Trace = "weblog"
	raw, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecVersion != 2 || got.Trace != "weblog" {
		t.Fatalf("v2 scenario fields lost: version=%d trace=%q", got.SpecVersion, got.Trace)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round-trip not identical:\n got %+v\nwant %+v", got, s)
	}
	p := got.Entries[0].Pattern
	if p == nil || p.Name != "serve-mix" || len(p.Ops) != 3 || len(p.Phases) != 2 {
		t.Fatalf("pattern lost in round-trip: %+v", p)
	}
}

// TestSpecV2Golden pins the normalized v2 JSON shape: the checked-in
// golden must equal the normalized canonical spec byte for byte, and it
// must parse and validate. A diff here means the normalized v2 format
// changed — the cue to update docs/SCENARIO.md and regenerate with
// -update, not to silently drift.
func TestSpecV2Golden(t *testing.T) {
	fresh, err := v2Spec().Normalized().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	fresh = append(fresh, '\n')
	want, err := os.ReadFile(v2GoldenPath)
	if *updateV2Golden || (err != nil && os.IsNotExist(err)) {
		if mkErr := os.MkdirAll(filepath.Dir(v2GoldenPath), 0o755); mkErr != nil {
			t.Fatalf("mkdir testdata: %v", mkErr)
		}
		if wrErr := os.WriteFile(v2GoldenPath, fresh, 0o644); wrErr != nil {
			t.Fatalf("write golden: %v", wrErr)
		}
		if !*updateV2Golden {
			t.Fatalf("golden %s was missing; generated it — rerun the test and check it in", v2GoldenPath)
		}
		want = fresh
	} else if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatalf("normalized v2 spec diverges from golden %s; regenerate with -update if intended:\n%s", v2GoldenPath, fresh)
	}
	parsed, err := Parse(want)
	if err != nil {
		t.Fatalf("golden no longer parses: %v", err)
	}
	if err := parsed.Validate(testRegistry(t)); err != nil {
		t.Fatalf("golden no longer validates: %v", err)
	}
}

// TestSpecV1ParsesUnchanged guards backward compatibility: a spec without
// any v2 feature marshals without v2 fields, parses to SpecVersion 0 (v1),
// and Normalized upgrades it to v2 without touching what it declares.
func TestSpecV1ParsesUnchanged(t *testing.T) {
	s := Spec{
		Name:    "v1",
		Entries: []Entry{{Workload: "alpha", Rate: 5, Arrival: "poisson"}},
		Scale:   3,
	}
	raw, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"specVersion", "trace", "pattern"} {
		if strings.Contains(string(raw), field) {
			t.Fatalf("v1 spec marshals a v2 field %q:\n%s", field, raw)
		}
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecVersion != 0 {
		t.Fatalf("parsed v1 spec has version %d, want 0", got.SpecVersion)
	}
	n := got.Normalized()
	if n.SpecVersion != 2 {
		t.Fatalf("Normalized version %d, want upgrade to 2", n.SpecVersion)
	}
	if n.Scale != 3 || n.Entries[0].Rate != 5 || n.Entries[0].Arrival != "poisson" {
		t.Fatalf("upgrade changed declared values: %+v", n)
	}
	// No replay in play: the upgrade must not invent a trace.
	if n.Trace != "" {
		t.Fatalf("upgrade invented trace %q", n.Trace)
	}
}

// TestSpecVersionValidation covers the version gate: unknown versions are
// rejected, and an explicit v1 declaration conflicts with v2 features.
func TestSpecVersionValidation(t *testing.T) {
	reg := testRegistry(t)
	pat := &opcompose.Pattern{Ops: []opcompose.OpWeight{{Op: "scan"}}}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown version", Spec{SpecVersion: 3, Entries: []Entry{{Workload: "alpha"}}}, "unsupported specVersion"},
		{"v1 with pattern", Spec{SpecVersion: 1, Entries: []Entry{{Pattern: pat}}}, "v2 features"},
		{"v1 with trace", Spec{SpecVersion: 1, Entries: []Entry{{Workload: "alpha"}}, Rate: 5, Trace: "weblog"}, "v2 features"},
		{"v1 with replay", Spec{SpecVersion: 1, Entries: []Entry{{Workload: "alpha"}}, Rate: 5, Arrival: "replay"}, "v2 features"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(reg)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	ok := Spec{SpecVersion: 1, Entries: []Entry{{Workload: "alpha"}}, Rate: 5}
	if err := ok.Validate(reg); err != nil {
		t.Fatalf("plain v1 spec with explicit version rejected: %v", err)
	}
}

// TestLoadClusterSymmetry is the regression test for the once-asymmetric
// validation: every load-cluster field — arrival, duration, and now trace —
// set without a rate must fail identically at scenario and entry level.
func TestLoadClusterSymmetry(t *testing.T) {
	reg := testRegistry(t)
	cases := []struct {
		name string
		spec Spec
	}{
		{"scenario arrival", Spec{Entries: []Entry{{Workload: "alpha"}}, Arrival: "poisson"}},
		{"scenario duration", Spec{Entries: []Entry{{Workload: "alpha"}}, Duration: Duration(time.Second)}},
		{"scenario trace", Spec{Entries: []Entry{{Workload: "alpha"}}, Trace: "weblog"}},
		{"entry arrival", Spec{Entries: []Entry{{Workload: "alpha", Arrival: "poisson"}}}},
		{"entry duration", Spec{Entries: []Entry{{Workload: "alpha", Duration: Duration(time.Second)}}}},
		{"entry trace", Spec{Entries: []Entry{{Workload: "alpha", Trace: "weblog"}}}},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(reg)
		if err == nil {
			t.Fatalf("%s: without a rate accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "without a rate") {
			t.Fatalf("%s: error %q does not mention the missing rate", tc.name, err)
		}
	}
	// A trace also requires the replay arrival, at either level.
	err := Spec{Entries: []Entry{{Workload: "alpha"}}, Rate: 5, Arrival: "poisson", Trace: "weblog"}.Validate(reg)
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("scenario trace with poisson arrival: %v", err)
	}
	err = Spec{Entries: []Entry{{Workload: "alpha", Rate: 5, Arrival: "poisson", Trace: "weblog"}}}.Validate(reg)
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("entry trace with poisson arrival: %v", err)
	}
}

// TestEntryInheritance pins the one inheritance rule across all override
// clusters: zero fields take the scenario-wide value, non-zero fields win.
func TestEntryInheritance(t *testing.T) {
	n := Spec{
		Scale: 4, Workers: 8, Seed: 7, Reps: 3,
		Rate: 20, Arrival: "replay", Duration: Duration(5 * time.Second), Trace: "weblog",
	}
	r := Entry{Scale: 9, Rate: 80, Trace: "stream"}.inherit(n)
	if r.Scale != 9 || r.Workers != 8 || r.Seed != 7 || r.Reps != 3 {
		t.Fatalf("execution cluster resolved wrong: %+v", r)
	}
	if r.Rate != 80 || r.Arrival != "replay" || time.Duration(r.Duration) != 5*time.Second || r.Trace != "stream" {
		t.Fatalf("load cluster resolved wrong: %+v", r)
	}
	if z := (Entry{}).inherit(n); z.Scale != 4 || z.Rate != 20 || z.Trace != "weblog" {
		t.Fatalf("full inheritance wrong: %+v", z)
	}
}

// TestPatternEntryExclusive rejects a pattern entry that also selects from
// the registry.
func TestPatternEntryExclusive(t *testing.T) {
	pat := &opcompose.Pattern{Ops: []opcompose.OpWeight{{Op: "scan"}}}
	err := Spec{Entries: []Entry{{Workload: "alpha", Pattern: pat}}}.Validate(testRegistry(t))
	if err == nil || !strings.Contains(err.Error(), "pattern entry cannot also select") {
		t.Fatalf("mixed pattern/selection entry: %v", err)
	}
}

// TestReplayRunEndToEnd runs a registry workload under the trace-replay
// arrival and checks the load digest carries the replay provenance.
func TestReplayRunEndToEnd(t *testing.T) {
	s := Spec{
		Name:     "replayed",
		Entries:  []Entry{{Workload: "alpha"}},
		Rate:     100,
		Arrival:  "replay",
		Duration: Duration(200 * time.Millisecond),
		Seed:     2014,
	}
	out, err := Run(context.Background(), s, Options{Registry: testRegistry(t)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := out.Results[0]
	if r.Load == nil {
		t.Fatal("result missing load statistics")
	}
	if r.Load.Arrival != "replay" {
		t.Fatalf("arrival %q, want replay", r.Load.Arrival)
	}
	if r.Load.Scheduled != 20 || r.Load.Dispatched != 20 {
		t.Fatalf("scheduled/dispatched %d/%d, want 20/20", r.Load.Scheduled, r.Load.Dispatched)
	}
	if out.Spec.Trace != opcompose.DefaultCorpus {
		t.Fatalf("normalized spec trace %q, want default %q", out.Spec.Trace, opcompose.DefaultCorpus)
	}
}

// composedSpec is a ≥3-operation pattern over the weblog corpus with two
// phases — the acceptance-criteria shape — with engine knobs pinned so
// only the knobs under test vary.
func composedSpec(workers, datagenWorkers int) Spec {
	return Spec{
		Name: "composed",
		Entries: []Entry{{Pattern: &opcompose.Pattern{
			Name:        "mix",
			Corpus:      "weblog",
			OpsPerScale: 400,
			Ops:         []opcompose.OpWeight{{Op: "filter", Weight: 2}, {Op: "aggregate"}, {Op: "scan"}},
			Phases: []opcompose.Phase{
				{Name: "load", Ops: []opcompose.OpWeight{{Op: "put"}, {Op: "get"}}, Fraction: 0.4},
				{Name: "serve"},
			},
		}}},
		Seed:           2014,
		Scale:          1,
		Workers:        workers,
		DatagenWorkers: datagenWorkers,
		Parallel:       1,
	}
}

// TestComposedRunDeterministicAcrossWorkers is the tentpole equivalence
// guarantee end to end: the same composed spec run through the full
// five-step pipeline yields the same pattern digest, op counts and per-cell
// observation counts at any Workers/DatagenWorkers setting.
func TestComposedRunDeterministicAcrossWorkers(t *testing.T) {
	type digest struct {
		pattern int64
		ops     int64
		cells   map[string]uint64
	}
	runOne := func(workers, dg int) digest {
		t.Helper()
		out, err := Run(context.Background(), composedSpec(workers, dg), Options{Registry: testRegistry(t)})
		if err != nil {
			t.Fatalf("Run(workers=%d dg=%d): %v", workers, dg, err)
		}
		res := out.Results[0].Result
		d := digest{
			pattern: res.Counters["pattern_digest"],
			ops:     res.Counters["ops"],
			cells:   map[string]uint64{},
		}
		for _, op := range res.Ops {
			d.cells[op.Op] = op.Count
		}
		return d
	}
	base := runOne(1, 1)
	if base.pattern == 0 || base.ops != 400 {
		t.Fatalf("base run digest=%d ops=%d, want non-zero digest and 400 ops", base.pattern, base.ops)
	}
	if _, ok := base.cells["load/put"]; !ok {
		t.Fatalf("no load/put cell recorded: %v", base.cells)
	}
	for _, alt := range [][2]int{{8, 1}, {3, 4}} {
		got := runOne(alt[0], alt[1])
		if got.pattern != base.pattern || got.ops != base.ops || !reflect.DeepEqual(got.cells, base.cells) {
			t.Fatalf("workers=%d dg=%d diverged from base:\n got %+v\nwant %+v", alt[0], alt[1], got, base)
		}
	}
	// A different seed must change the digest, or it proves nothing.
	other := composedSpec(1, 1)
	other.Seed = 99
	out, err := Run(context.Background(), other, Options{Registry: testRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Result.Counters["pattern_digest"] == base.pattern {
		t.Fatal("pattern digest ignores the seed")
	}
}

// TestTasksShardPartitionWithPatterns extends the shard-equivalence
// contract to pattern entries: the union of all shards' tasks is exactly
// the full selection, in order, with composed workloads included.
func TestTasksShardPartitionWithPatterns(t *testing.T) {
	reg := testRegistry(t)
	spec := Spec{Entries: []Entry{
		{Suite: "S1"},
		{Pattern: &opcompose.Pattern{Name: "mix", Ops: []opcompose.OpWeight{{Op: "scan"}, {Op: "filter"}}}},
		{Workload: "alpha"},
	}}
	full, err := spec.Tasks(reg)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ts []Task) []string {
		out := make([]string, len(ts))
		for i, task := range ts {
			out[i] = task.Workload.Name()
		}
		return out
	}
	if want := names(full); !contains(want, "mix") {
		t.Fatalf("full selection misses the composed workload: %v", want)
	}
	const shards = 2
	var merged []Task
	for idx := 0; idx < shards; idx++ {
		part, err := Shard(full, idx, shards)
		if err != nil {
			t.Fatal(err)
		}
		for k, task := range part {
			global := ShardIndices(len(full), idx, shards)[k]
			if task.Workload.Name() != full[global].Workload.Name() {
				t.Fatalf("shard %d task %d is %s, want global %d = %s",
					idx, k, task.Workload.Name(), global, full[global].Workload.Name())
			}
		}
		merged = append(merged, part...)
	}
	if len(merged) != len(full) {
		t.Fatalf("shards cover %d tasks, want %d", len(merged), len(full))
	}
}

// TestComposedArtifactDeterministic pins the composed pipeline's artifact
// behavior under a frozen clock: the same spec produces byte-identical run
// blobs across runs, and a run at a different worker count captures
// exactly the same latency streams — the sample replay order is plan
// order, not completion order.
func TestComposedArtifactDeterministic(t *testing.T) {
	frozen := func() time.Time { return time.Unix(1754600000, 0) }
	runBlob := func(spec Spec, path string) *runstore.Run {
		t.Helper()
		_, err := Run(context.Background(), spec, Options{
			Registry:       testRegistry(t),
			RunOutput:      path,
			SampleCapacity: 512,
			ToolVersion:    "test",
			Now:            frozen,
			Stamp:          7,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		run, err := runstore.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		return run
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.blob")
	b := filepath.Join(dir, "b.blob")
	c := filepath.Join(dir, "c.blob")
	runBlob(composedSpec(1, 1), a)
	runBlob(composedSpec(1, 1), b)
	rawA, _ := os.ReadFile(a)
	rawB, _ := os.ReadFile(b)
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("same composed spec under a frozen clock wrote different blobs (%d vs %d bytes)", len(rawA), len(rawB))
	}
	// Different worker counts change the normalized spec (and so the blob
	// header), but every captured latency stream must be identical.
	first := runBlob(composedSpec(1, 1), filepath.Join(dir, "a2.blob"))
	other := runBlob(composedSpec(3, 4), c)
	if !reflect.DeepEqual(first.Series, other.Series) {
		t.Fatalf("latency streams differ across worker counts:\n got %+v\nwant %+v", other.Series, first.Series)
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
