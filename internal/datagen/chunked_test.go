package datagen

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/stats"
)

func TestPlanChunksCoversRange(t *testing.T) {
	plan := PlanChunks(10000, 4096)
	if len(plan) != 3 {
		t.Fatalf("got %d chunks, want 3", len(plan))
	}
	var next int64
	for i, c := range plan {
		if c.Index != i {
			t.Fatalf("chunk %d has index %d", i, c.Index)
		}
		if c.Start != next {
			t.Fatalf("chunk %d starts at %d, want %d", i, c.Start, next)
		}
		next = c.End
	}
	if next != 10000 {
		t.Fatalf("plan covers %d items, want 10000", next)
	}
	if PlanChunks(0, 4096) != nil {
		t.Fatal("empty corpus should have a nil plan")
	}
	if got := len(PlanChunks(5, 0)); got != 1 {
		t.Fatalf("default chunk size should give 1 chunk for 5 items, got %d", got)
	}
}

// fakeCorpus renders each item as "item-N" lines; chunk PanicAt (when >= 0)
// panics and chunk FailAt returns an error.
type fakeCorpus struct {
	PanicAt int
	FailAt  int
}

func (f fakeCorpus) Name() string { return "fake" }

func (f fakeCorpus) Plan(scale int) []Chunk { return PlanChunks(int64(scale)*100, 10) }

func (f fakeCorpus) AppendChunk(dst []byte, g *stats.RNG, _ int, c Chunk) ([]byte, error) {
	if c.Index == f.PanicAt {
		panic("chunk exploded")
	}
	if c.Index == f.FailAt {
		return dst, errors.New("chunk failed")
	}
	for i := c.Start; i < c.End; i++ {
		dst = fmt.Appendf(dst, "item-%d-%d\n", i, g.IntN(1000))
	}
	return dst, nil
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	cg := fakeCorpus{PanicAt: -1, FailAt: -1}
	base, stat1, err := Build(cg, 7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stat1.Items != 200 || stat1.Chunks != 20 {
		t.Fatalf("stat = %+v, want 200 items over 20 chunks", stat1)
	}
	if stat1.Bytes != int64(len(base)) {
		t.Fatalf("stat.Bytes = %d, corpus is %d bytes", stat1.Bytes, len(base))
	}
	for _, workers := range []int{4, 16} {
		got, stat, err := Build(cg, 7, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(base) {
			t.Fatalf("workers=%d produced different bytes", workers)
		}
		if stat.Digest != stat1.Digest {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", workers, stat.Digest, stat1.Digest)
		}
	}
	// A different seed must change the corpus.
	_, other, err := Build(cg, 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest == stat1.Digest {
		t.Fatal("different seeds produced the same digest")
	}
}

func TestBuildPanickingChunkFailsCleanly(t *testing.T) {
	corpus, _, err := Build(fakeCorpus{PanicAt: 3, FailAt: -1}, 7, 1, 4)
	if err == nil {
		t.Fatal("want error from panicking chunk")
	}
	if !strings.Contains(err.Error(), "chunk 3") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %q should name chunk 3 and the panic", err)
	}
	if corpus != nil {
		t.Fatal("failed build must not return a partial corpus")
	}
}

func TestBuildFailingChunkFailsWholeGeneration(t *testing.T) {
	_, _, err := Build(fakeCorpus{PanicAt: -1, FailAt: 5}, 7, 1, 4)
	if err == nil || !strings.Contains(err.Error(), "chunk 5") {
		t.Fatalf("want chunk 5 error, got %v", err)
	}
}

func TestGenerateFillsInPlanOrder(t *testing.T) {
	plan := PlanChunks(100, 7)
	out, err := Generate(3, plan, 8, func(g *stats.RNG, c Chunk, dst []int64) error {
		if int64(len(dst)) != c.Len() || int64(cap(dst)) != c.Len() {
			return fmt.Errorf("chunk %d: window len %d cap %d, want %d", c.Index, len(dst), cap(dst), c.Len())
		}
		for i := range dst {
			dst[i] = c.Start + int64(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("got %d items, want 100", len(out))
	}
	for i, v := range out {
		if v != int64(i) {
			t.Fatalf("out[%d] = %d: chunk windows out of plan order", i, v)
		}
	}
}

func TestGeneratePanicIsolated(t *testing.T) {
	plan := PlanChunks(50, 10)
	out, err := Generate(3, plan, 4, func(g *stats.RNG, c Chunk, dst []int) error {
		if c.Index == 2 {
			panic("boom")
		}
		dst[0] = c.Index
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "chunk 2") {
		t.Fatalf("want chunk 2 panic error, got %v", err)
	}
	if out != nil {
		t.Fatal("failed generation must not return a partial output")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	cg := fakeCorpus{PanicAt: -1, FailAt: -1}
	Register(cg)
	got, ok := Lookup("fake")
	if !ok {
		t.Fatal("registered generator not found")
	}
	if got.Name() != "fake" {
		t.Fatalf("lookup returned %q", got.Name())
	}
	found := false
	for _, name := range Generators() {
		if name == "fake" {
			found = true
		}
	}
	if !found {
		t.Fatal("Generators() does not list the registered name")
	}
}
