package commerce

import (
	"context"
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
	if c.Counter("records") == 0 {
		t.Fatal("no ratings recorded")
	}
}

func TestNaiveBayesAccuracy(t *testing.T) {
	c := metrics.NewCollector("nb")
	if err := (NaiveBayes{}).Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Counter("accuracy_pct") < 80 {
		t.Fatalf("accuracy %d%%", c.Counter("accuracy_pct"))
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
