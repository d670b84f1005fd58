package commerce

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestCollaborativeFiltering(t *testing.T) {
	c := metrics.NewCollector("cf")
	if err := (CollaborativeFiltering{}).Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["records"] == 0 {
		t.Fatal("no ratings recorded")
	}
}

func TestNaiveBayesAccuracy(t *testing.T) {
	c := metrics.NewCollector("nb")
	if err := (NaiveBayes{}).Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["accuracy_pct"] < 80 {
		t.Fatalf("accuracy %d%%", c.Snapshot().Counters["accuracy_pct"])
	}
}

func TestGenerateRatings(t *testing.T) {
	g := stats.NewRNG(3)
	ratings := GenerateRatings(g, 100, 40, 10)
	if len(ratings) == 0 {
		t.Fatal("no ratings")
	}
	for _, r := range ratings {
		if r.User < 0 || r.User >= 100 || r.Item < 0 || r.Item >= 40 {
			t.Fatalf("rating out of range: %+v", r)
		}
		if r.Score < 1 || r.Score > 5 {
			t.Fatalf("score out of range: %+v", r)
		}
	}
}

func TestLabeledDocsAreSingleTopic(t *testing.T) {
	docs, labels, k := labeledDocs(4, 50, 30, 4)
	if len(docs) != 50 || len(labels) != 50 {
		t.Fatal("shape wrong")
	}
	if k < 2 {
		t.Fatal("need multiple classes")
	}
	for _, l := range labels {
		if l < 0 || l >= k {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestMetadata(t *testing.T) {
	for _, w := range []workloads.Workload{CollaborativeFiltering{}, NaiveBayes{}} {
		if w.Domain() != "e-commerce" || w.Category() != workloads.Offline {
			t.Fatalf("%T metadata wrong", w)
		}
	}
}

// TestLabeledDocsPinned holds the labelled corpus to the bytes it had when
// every document built its own alias table over its topic's word distribution:
// the model's per-topic tables are the same tables, so the draws are the same,
// at any worker count.
func TestLabeledDocsPinned(t *testing.T) {
	for seed, want := range map[uint64]string{7: "706b9a15aa058dc6", 2014: "00561e1798b51226"} {
		for _, workers := range []int{1, 2, 4} {
			docs, labels, _ := labeledDocs(seed, 600, 40, workers)
			h := sha256.New()
			for i, doc := range docs {
				fmt.Fprintln(h, labels[i], strings.Join(doc, " "))
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
				t.Errorf("seed %d at %d workers: corpus digest %s, want %s", seed, workers, got, want)
			}
		}
	}
}
