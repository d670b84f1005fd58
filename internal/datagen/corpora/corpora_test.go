package corpora

import (
	"fmt"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
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
		a, err := weblog.Generator{}.FromTableParallel(5, orders, 4000, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := weblog.Generator{}.FromTableParallel(5, orders, 4000, 16)
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

// BenchmarkDatagenParallel measures corpus generation throughput at 1, 2
// and 4 workers — the speedup evidence behind the parallel pipeline. The
// repo benchmark's datagen_corpora workload is what judges it.
func BenchmarkDatagenParallel(b *testing.B) {
	for _, name := range []string{"text", "table", "graph"} {
		cg, ok := datagen.Lookup(name)
		if !ok {
			b.Fatalf("generator %q missing", name)
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				var bytes int64
				for i := 0; i < b.N; i++ {
					_, stat, err := datagen.Build(cg, 42, 4, workers)
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
