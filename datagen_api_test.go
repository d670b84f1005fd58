package bdbench_test

import (
	"strings"
	"testing"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/stats"
)

// TestDataGenPublicAPI runs a built-in corpus generator through the
// public entry point and checks the determinism contract end to end:
// equal digests at different worker counts, different digests across
// seeds.
func TestDataGenPublicAPI(t *testing.T) {
	names := bdbench.DataGenerators()
	for _, want := range []string{"text", "table", "graph", "stream", "weblog"} {
		if !contains(names, want) {
			t.Fatalf("DataGenerators() = %v, missing %q", names, want)
		}
	}
	one, err := bdbench.DataGen("text", bdbench.DataGenOptions{Scale: 1, Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if one.Items == 0 || one.Bytes == 0 || one.Digest == "" {
		t.Fatalf("empty stat: %+v", one)
	}
	many, err := bdbench.DataGen("text", bdbench.DataGenOptions{Scale: 1, Workers: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if many.Digest != one.Digest {
		t.Fatalf("digest differs across worker counts: %s vs %s", many.Digest, one.Digest)
	}
	other, err := bdbench.DataGen("text", bdbench.DataGenOptions{Scale: 1, Workers: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest == one.Digest {
		t.Fatal("different seeds share a digest")
	}
}

func TestDataGenUnknownName(t *testing.T) {
	_, err := bdbench.DataGen("no-such-corpus", bdbench.DataGenOptions{})
	if err == nil || !strings.Contains(err.Error(), "no-such-corpus") {
		t.Fatalf("want unknown-generator error, got %v", err)
	}
}

// constCorpus is a minimal custom generator, registered in the corpus
// registry DataGen resolves names from.
type constCorpus struct{}

func (constCorpus) Name() string { return "test-const" }

func (constCorpus) Plan(scale int) []datagen.Chunk { return datagen.PlanChunks(int64(scale)*4, 2) }

func (constCorpus) AppendChunk(dst []byte, g *stats.RNG, _ int, c datagen.Chunk) ([]byte, error) {
	return append(dst, strings.Repeat("x", int(c.Len()))...), nil
}

func TestRegisterDataGeneratorExtendsRegistry(t *testing.T) {
	datagen.Register(constCorpus{})
	stat, err := bdbench.DataGen("test-const", bdbench.DataGenOptions{Scale: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stat.Items != 8 || stat.Bytes != 8 {
		t.Fatalf("custom corpus stat %+v, want 8 items / 8 bytes", stat)
	}
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}
