package runstore

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"testing"
)

// sampleRun builds a deterministic run with a few series shaped like real
// captures: near-regular offsets, values that wander around a base.
func sampleRun() *Run {
	rng := rand.New(rand.NewSource(42))
	mk := func(wl, op string, substrate bool, n int, base int64) Series {
		s := Series{Workload: wl, Op: op, Substrate: substrate}
		off := int64(0)
		for i := 0; i < n; i++ {
			off += 1_000_000 + rng.Int63n(20_000)
			s.Samples = append(s.Samples, Sample{
				Offset: off,
				Value:  base + rng.Int63n(base/4+1),
			})
		}
		return s
	}
	payload, _ := json.Marshal(map[string]string{"summary": "3 workloads"})
	return &Run{
		Meta: Meta{
			Kind:        KindScenario,
			Name:        "smoke",
			Tool:        "bdbench",
			ToolVersion: "1.5.0",
			SpecDigest:  "abc123",
			Seed:        7,
			CreatedUnix: 1754600000,
			Env:         Environment{GoVersion: "go1.23", OS: "linux", Arch: "amd64", CPUs: 1, MaxProcs: 1},
			Corpora:     []Corpus{{Name: "wordcount", Digest: "deadbeef"}},
			Workloads: []WorkloadMeta{
				{Workload: "micro.sort", Suite: "micro", Category: "offline", Throughput: 1234.5, ElapsedNs: 2_000_000_000},
				{Workload: "micro.grep", Suite: "micro", Category: "offline", Throughput: 987.6, ElapsedNs: 1_500_000_000},
			},
			Payload: payload,
		},
		Series: []Series{
			mk("micro.sort", "sort", false, 500, 800_000),
			mk("micro.sort", "request", true, 300, 1_200_000),
			mk("micro.grep", "grep", false, 400, 300_000),
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	run := sampleRun()
	raw, err := Encode(run)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	wantMeta, _ := json.Marshal(run.Meta)
	gotMeta, _ := json.Marshal(got.Meta)
	if !bytes.Equal(wantMeta, gotMeta) {
		t.Errorf("meta round trip:\n got %s\nwant %s", gotMeta, wantMeta)
	}
	if len(got.Series) != len(run.Series) {
		t.Fatalf("series count: got %d want %d", len(got.Series), len(run.Series))
	}
	for i, s := range got.Series {
		w := run.Series[i]
		if s.Workload != w.Workload || s.Op != w.Op || s.Substrate != w.Substrate || s.Dropped != w.Dropped {
			t.Errorf("series %d header mismatch: got %+v", i, s)
		}
		if len(s.Samples) != len(w.Samples) {
			t.Fatalf("series %d: got %d samples want %d", i, len(s.Samples), len(w.Samples))
		}
		for j := range s.Samples {
			if s.Samples[j] != w.Samples[j] {
				t.Fatalf("series %d sample %d: got %+v want %+v", i, j, s.Samples[j], w.Samples[j])
			}
		}
	}

	// decode → re-encode must be byte-identical.
	again, err := Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(raw, again) {
		t.Errorf("decode→re-encode not byte-identical: %d vs %d bytes", len(raw), len(again))
	}
}

func TestCanonicalizationDigestStableAcrossShuffles(t *testing.T) {
	// The same logical sample set, distributed differently across "shards"
	// (i.e. arriving in different orders), must produce the same digest.
	base := sampleRun()
	want, err := base.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := sampleRun()
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled.Series), func(i, j int) {
			shuffled.Series[i], shuffled.Series[j] = shuffled.Series[j], shuffled.Series[i]
		})
		for i := range shuffled.Series {
			s := shuffled.Series[i].Samples
			rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		}
		got, err := shuffled.Digest()
		if err != nil {
			t.Fatalf("Digest: %v", err)
		}
		if got != want {
			t.Fatalf("trial %d: digest changed under shuffle: %s != %s", trial, got, want)
		}
	}
}

func TestEmptyAndSingleSeries(t *testing.T) {
	for _, r := range []*Run{
		{Meta: Meta{Kind: "bench"}},
		{Meta: Meta{Kind: "bench"}, Series: []Series{{Workload: "bench", Op: "BenchmarkX", Samples: []Sample{{Value: 123}}}}},
		{Meta: Meta{Kind: KindScenario}, Series: []Series{{Workload: "w", Op: "o"}}}, // zero samples
	} {
		raw, err := Encode(r)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if len(got.Series) != len(r.Series) {
			t.Fatalf("series count: got %d want %d", len(got.Series), len(r.Series))
		}
	}
}

func TestNegativeValuesRoundTrip(t *testing.T) {
	r := &Run{
		Meta: Meta{Kind: KindScenario},
		Series: []Series{{
			Workload: "w", Op: "o",
			Samples: []Sample{{Offset: -50, Value: -1}, {Offset: 0, Value: 1 << 60}, {Offset: 3, Value: -(1 << 60)}},
		}},
	}
	raw, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i, s := range got.Series[0].Samples {
		if s != r.Series[0].Samples[i] {
			t.Errorf("sample %d: got %+v want %+v", i, s, r.Series[0].Samples[i])
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.blob")
	run := sampleRun()
	if err := WriteFile(path, run); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	wantDigest, _ := run.Digest()
	gotDigest, _ := got.Digest()
	if gotDigest != wantDigest {
		t.Errorf("digest after file round trip: %s != %s", gotDigest, wantDigest)
	}
}

func TestQuantile(t *testing.T) {
	s := Series{}
	for i := int64(1); i <= 100; i++ {
		s.Samples = append(s.Samples, Sample{Offset: i, Value: i})
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := quantileOf(s.sortedValues(), tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	empty := Series{}
	if got := quantileOf(empty.sortedValues(), 0.5); got != 0 {
		t.Errorf("empty Quantile = %d", got)
	}
}
