package corpora

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

// TestBuiltinsRegistered pins the registry contents the CLI and public API
// advertise.
func TestBuiltinsRegistered(t *testing.T) {
	want := []string{"graph", "stream", "table", "text", "weblog"}
	got := datagen.Generators()
	for _, name := range want {
		if _, ok := datagen.Lookup(name); !ok {
			t.Fatalf("built-in %q not registered (have %v)", name, got)
		}
	}
}

// TestCorpusDeterminismAcrossWorkerCounts is the §2 determinism contract
// for every adapted generator: same seed ⇒ byte-identical corpus at
// workers=1, 4 and 16.
func TestCorpusDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, name := range datagen.Generators() {
		t.Run(name, func(t *testing.T) {
			cg, _ := datagen.Lookup(name)
			base, stat, err := datagen.Build(cg, 42, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if stat.Items == 0 || stat.Bytes == 0 {
				t.Fatalf("%s produced an empty corpus: %+v", name, stat)
			}
			for _, workers := range []int{4, 16} {
				got, st, err := datagen.Build(cg, 42, 1, workers)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(base) {
					t.Fatalf("%s: workers=%d bytes differ from workers=1", name, workers)
				}
				if st.Digest != stat.Digest {
					t.Fatalf("%s: workers=%d digest %s != %s", name, workers, st.Digest, stat.Digest)
				}
			}
			// Different seeds must produce different corpora.
			_, other, err := datagen.Build(cg, 43, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			if other.Digest == stat.Digest {
				t.Fatalf("%s: seeds 42 and 43 share digest %s", name, stat.Digest)
			}
		})
	}
}

// TestGeneratorParallelVariantsMatchSequentialChunking verifies the
// generator-level parallel APIs (used by the workloads) are themselves
// worker-count independent.
func TestGeneratorParallelVariantsMatchSequentialChunking(t *testing.T) {
	t.Run("text", func(t *testing.T) {
		r := textgen.RandomText{Dictionary: textgen.DefaultDictionary()}
		a := r.GenerateParallel(5, 700, 12, 1)
		b := r.GenerateParallel(5, 700, 12, 16)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatal("RandomText.GenerateParallel differs across worker counts")
		}
	})
	t.Run("graph", func(t *testing.T) {
		a := graphgen.DefaultRMAT.GenerateParallel(5, 10, 1)
		b := graphgen.DefaultRMAT.GenerateParallel(5, 10, 16)
		if a.N != b.N || len(a.Edges) != len(b.Edges) {
			t.Fatal("graph shapes differ")
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("edge %d differs across worker counts", i)
			}
		}
	})
	t.Run("stream", func(t *testing.T) {
		gen := streamgen.Generator{Mix: streamgen.Mix{UpdateFraction: 0.3}}
		a := gen.GenerateParallel(5, 9000, 1)
		b := gen.GenerateParallel(5, 9000, 16)
		if len(a) != len(b) {
			t.Fatal("stream lengths differ")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d differs across worker counts", i)
			}
		}
	})
	t.Run("weblog", func(t *testing.T) {
		orders := referenceOrders()
		a, err := weblog.FromTableParallel(5, orders, 4000, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := weblog.FromTableParallel(5, orders, 4000, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatal("log lengths differ")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("record %d differs across worker counts", i)
			}
		}
	})
}

// TestAppendChunkAppends is the AppendChunk contract for every built-in: the
// bytes already in dst are left as they were, and what is appended equals
// the chunk rendered into a nil dst from the same RNG.
func TestAppendChunkAppends(t *testing.T) {
	for _, name := range datagen.Generators() {
		cg, _ := datagen.Lookup(name)
		plan := cg.Plan(2)
		for _, c := range []datagen.Chunk{plan[0], plan[len(plan)-1]} {
			want, err := cg.AppendChunk(nil, stats.NewRNG(9).Split("chunk", c.Index), 2, c)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("existing bytes\n")
			dst := append(make([]byte, 0, len(prefix)+len(want)), prefix...)
			got, err := cg.AppendChunk(dst, stats.NewRNG(9).Split("chunk", c.Index), 2, c)
			if err != nil {
				t.Fatal(err)
			}
			if string(dst) != string(prefix) || string(got[:len(prefix)]) != string(prefix) {
				t.Fatalf("%s chunk %d: the existing prefix became %q", name, c.Index, got[:len(prefix)])
			}
			if string(got[len(prefix):]) != string(want) {
				t.Fatalf("%s chunk %d: appended %d bytes differ from the %d rendered into nil", name, c.Index, len(got)-len(prefix), len(want))
			}
		}
	}
}

// TestAppendChunkAllocations: into a buffer with room, a chunk of text,
// graph or stream allocates nothing, a chunk of table only its one reused
// row, and a chunk of weblog only what the web-log generator measured.
func TestAppendChunkAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ceilings := map[string]float64{"text": 0, "graph": 0, "stream": 0, "table": 1, "weblog": 0}
	buf := make([]byte, 0, 4<<20)
	for name, ceiling := range ceilings {
		cg, _ := datagen.Lookup(name)
		c := cg.Plan(1)[0]
		g := stats.NewRNG(3)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := cg.AppendChunk(buf[:0], g, 1, c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s: AppendChunk of %d items allocates %v times, ceiling %v", name, c.Len(), allocs, ceiling)
		}
	}
}

// TestBuildStatMemoryFollowsChunks: BuildStat holds chunks, not the corpus,
// so four times the stream allocates about what one does. One worker keeps
// the reading deterministic: no chunk finishes out of order, so every chunk
// reuses the first one's buffer.
func TestBuildStatMemoryFollowsChunks(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cg, _ := datagen.Lookup("stream")
	allocated := func(scale int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := datagen.BuildStat(cg, 5, scale, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(10), allocated(40)
	if ratio := float64(large) / float64(small); ratio > 1.5 {
		t.Fatalf("stream at scale 40 allocates %d bytes, %.2f× the %d at scale 10; want at most 1.5×", large, ratio, small)
	}
}

// BenchmarkDatagenParallel measures every built-in corpus through BuildStat
// at 1, 2 and 4 workers — the speedup and allocation evidence behind the
// parallel pipeline. The repo benchmark's datagen_corpora workload is what
// judges it.
func BenchmarkDatagenParallel(b *testing.B) {
	for _, name := range datagen.Generators() {
		cg, _ := datagen.Lookup(name)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var bytes int64
				for i := 0; i < b.N; i++ {
					stat, err := datagen.BuildStat(cg, 42, 4, workers)
					if err != nil {
						b.Fatal(err)
					}
					bytes = stat.Bytes
				}
				b.SetBytes(bytes)
			})
		}
	}
}
