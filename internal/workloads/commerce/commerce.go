// Package commerce implements the e-commerce domain workloads of the
// paper's survey: item-based collaborative filtering over a user-item
// rating matrix and multinomial naive Bayes text classification (the
// "Bayes" workload of HiBench/BigDataBench), with the Bayes training
// counts computed as a MapReduce job.
package commerce

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Rating is one user-item interaction.
type Rating struct {
	User, Item int
	Score      float64
}

// GenerateRatings builds a synthetic rating matrix with planted structure:
// users belong to taste groups, each group concentrated on a slice of the
// item catalog, so items within a slice end up similar.
func GenerateRatings(g *stats.RNG, users, items, perUser int) []Rating {
	groups := 4
	var out []Rating
	for u := 0; u < users; u++ {
		group := u % groups
		lo := group * items / groups
		hi := (group + 1) * items / groups
		seen := map[int]bool{}
		for r := 0; r < perUser; r++ {
			var item int
			if g.Bool(0.85) {
				item = lo + g.IntN(hi-lo)
			} else {
				item = g.IntN(items)
			}
			if seen[item] {
				continue
			}
			seen[item] = true
			out = append(out, Rating{User: u, Item: item, Score: 1 + float64(g.IntN(5))})
		}
	}
	return out
}

// CollaborativeFiltering computes item-item cosine similarities and
// verifies that same-group items are more similar than cross-group items.
type CollaborativeFiltering struct{}

// Name implements workloads.Workload.
func (CollaborativeFiltering) Name() string { return "collaborative-filtering" }

// Category implements workloads.Workload.
func (CollaborativeFiltering) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (CollaborativeFiltering) Domain() string { return "e-commerce" }

// StackTypes implements workloads.Workload.
func (CollaborativeFiltering) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (CollaborativeFiltering) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	g := stats.NewRNG(p.Seed)
	users := p.Scale * 500
	const items = 80
	t0gen := time.Now()
	ratings := GenerateRatings(g, users, items, 12)
	c.RecordDatagen(time.Since(t0gen), int64(len(ratings)))

	t0 := time.Now()
	// Build item vectors (user -> score) and norms.
	vecs := make([]map[int]float64, items)
	for i := range vecs {
		vecs[i] = make(map[int]float64)
	}
	for _, r := range ratings {
		vecs[r.Item][r.User] = r.Score
	}
	norms := make([]float64, items)
	for i, v := range vecs {
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		norms[i] = math.Sqrt(s)
	}
	sim := func(a, b int) float64 {
		if norms[a] == 0 || norms[b] == 0 {
			return 0
		}
		small, large := vecs[a], vecs[b]
		if len(large) < len(small) {
			small, large = large, small
		}
		dot := 0.0
		for u, x := range small {
			if y, ok := large[u]; ok {
				dot += x * y
			}
		}
		return dot / (norms[a] * norms[b])
	}
	var same, cross stats.Summary
	for a := 0; a < items; a++ {
		for b := a + 1; b < items; b++ {
			s := sim(a, b)
			if a/(items/4) == b/(items/4) {
				same.Observe(s)
			} else {
				cross.Observe(s)
			}
		}
	}
	c.ObserveLatency("similarity", time.Since(t0))
	c.Add("records", int64(len(ratings)))

	if same.Mean() <= cross.Mean()*1.5 {
		return fmt.Errorf("collaborative-filtering: planted structure not recovered: same=%.4f cross=%.4f",
			same.Mean(), cross.Mean())
	}
	return nil
}

// NaiveBayes trains a multinomial classifier on topic-labeled documents
// (word counts via MapReduce) and verifies test accuracy well above chance.
type NaiveBayes struct{}

// Name implements workloads.Workload.
func (NaiveBayes) Name() string { return "naive-bayes" }

// Category implements workloads.Workload.
func (NaiveBayes) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (NaiveBayes) Domain() string { return "e-commerce" }

// StackTypes implements workloads.Workload.
func (NaiveBayes) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// labeledDoc pairs a document with its ground-truth class.
type labeledDoc struct {
	doc   textgen.Document
	label int
}

// labeledDocs emits documents drawn from a single hidden topic each, so the
// topic is a ground-truth class label. Generation is chunked: the corpus
// depends only on (seed, n, meanLen), never on the worker count.
func labeledDocs(seed uint64, n, meanLen, workers int) ([]textgen.Document, []int, int) {
	model := textgen.NewReferenceModel()
	pairs, err := datagen.Generate(seed, datagen.PlanChunks(int64(n), 256), workers,
		func(g *stats.RNG, ch datagen.Chunk) ([]labeledDoc, error) {
			part := make([]labeledDoc, 0, ch.Len())
			for i := ch.Start; i < ch.End; i++ {
				topic := g.IntN(model.Topics)
				length := 20 + g.IntN(meanLen)
				doc := make(textgen.Document, length)
				for j := 0; j < length; j++ {
					doc[j] = model.TopicWord(g, topic)
				}
				part = append(part, labeledDoc{doc: doc, label: topic})
			}
			return part, nil
		})
	if err != nil {
		// The hidden model cannot fail by construction.
		panic(err)
	}
	docs := make([]textgen.Document, n)
	labels := make([]int, n)
	for i, p := range pairs {
		docs[i] = p.doc
		labels[i] = p.label
	}
	return docs, labels, model.Topics
}

// Run implements workloads.Workload.
func (NaiveBayes) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	n := p.Scale * 1000
	if err := ctx.Err(); err != nil {
		return err
	}
	t0gen := time.Now()
	docs, labels, k := labeledDocs(p.Seed, n, 40, p.DatagenWorkers)
	c.RecordDatagen(time.Since(t0gen), int64(n))
	split := n * 4 / 5

	// ---- Training: per-class word counts as one MapReduce job.
	input := make([]mapreduce.KV, split)
	for i := 0; i < split; i++ {
		input[i] = mapreduce.KV{Key: strconv.Itoa(labels[i]), Value: strings.Join(docs[i], " ")}
	}
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "nb-train",
		Map: func(label, text string, emit func(k, v string)) {
			for _, w := range strings.Fields(text) {
				emit(label+"\x1f"+w, "1")
			}
			emit(label+"\x1f\x00docs", "1")
		},
		Reduce: func(key string, values []string, emit func(k, v string)) {
			emit(key, strconv.Itoa(len(values)))
		},
	}
	t0 := time.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.ObserveLatency("train", time.Since(t0))

	wordCounts := make([]map[string]float64, k)
	classTotals := make([]float64, k)
	classDocs := make([]float64, k)
	vocab := map[string]bool{}
	for i := range wordCounts {
		wordCounts[i] = make(map[string]float64)
	}
	for _, kv := range out {
		parts := strings.SplitN(kv.Key, "\x1f", 2)
		if len(parts) != 2 {
			return fmt.Errorf("naive-bayes: bad train key %q", kv.Key)
		}
		label, err := strconv.Atoi(parts[0])
		if err != nil || label < 0 || label >= k {
			return fmt.Errorf("naive-bayes: bad label %q", parts[0])
		}
		count, err := strconv.ParseFloat(kv.Value, 64)
		if err != nil {
			return err
		}
		if parts[1] == "\x00docs" {
			classDocs[label] = count
			continue
		}
		wordCounts[label][parts[1]] = count
		classTotals[label] += count
		vocab[parts[1]] = true
	}

	// ---- Classification of the held-out 20%.
	if err := ctx.Err(); err != nil {
		return err
	}
	t1 := time.Now()
	v := float64(len(vocab))
	totalDocs := 0.0
	for _, d := range classDocs {
		totalDocs += d
	}
	correct := 0
	for i := split; i < n; i++ {
		best, bestLP := 0, math.Inf(-1)
		for cl := 0; cl < k; cl++ {
			lp := math.Log((classDocs[cl] + 1) / (totalDocs + float64(k)))
			den := classTotals[cl] + v
			for _, w := range docs[i] {
				lp += math.Log((wordCounts[cl][w] + 1) / den)
			}
			if lp > bestLP {
				best, bestLP = cl, lp
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	c.ObserveLatency("classify", time.Since(t1))
	c.Add("records", int64(n))
	accuracy := float64(correct) / float64(n-split)
	c.Add("accuracy_pct", int64(accuracy*100))

	// The hidden topics are well separated; anything below 80% means the
	// pipeline is broken (chance is 25%).
	if accuracy < 0.8 {
		return fmt.Errorf("naive-bayes: accuracy %.2f below 0.80", accuracy)
	}
	return nil
}
