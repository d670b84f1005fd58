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
// item catalog, so items within a slice end up similar. The ratings are
// allocated once, and one set of rated items serves every user.
func GenerateRatings(g *stats.RNG, users, items, perUser int) []Rating {
	groups := 4
	out := make([]Rating, 0, users*perUser)
	seen := make([]bool, items)
	for u := 0; u < users; u++ {
		group := u % groups
		lo := group * items / groups
		hi := (group + 1) * items / groups
		first := len(out)
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
		for _, r := range out[first:] {
			seen[r.Item] = false
		}
	}
	return out
}

// CollaborativeFiltering computes item-item cosine similarities and
// verifies that same-group items are more similar than cross-group items.
var CollaborativeFiltering = workloads.New("collaborative-filtering", workloads.Offline, "e-commerce",
	collaborativeFiltering, stacks.TypeMapReduce)

func collaborativeFiltering(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	g := stats.NewRNG(p.Seed)
	users := p.Scale * 500
	const items = 80
	t0gen := c.Now()
	ratings := GenerateRatings(g, users, items, 12)
	c.RecordDatagen(c.Now().Sub(t0gen), int64(len(ratings)))
	if err := ctx.Err(); err != nil {
		return err
	}

	t0 := c.Now()
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
	c.Op("similarity").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(ratings)))

	if same.Mean() <= cross.Mean()*1.5 {
		return fmt.Errorf("collaborative-filtering: planted structure not recovered: same=%.4f cross=%.4f",
			same.Mean(), cross.Mean())
	}
	return nil
}

// NaiveBayes trains a multinomial classifier on topic-labeled documents
// (word counts via MapReduce) and verifies test accuracy well above chance.
var NaiveBayes = workloads.New("naive-bayes", workloads.Offline, "e-commerce", naiveBayes, stacks.TypeMapReduce)

// labeledDocs emits documents drawn from a single hidden topic each, so the
// topic is a ground-truth class label. Generation is chunked: the corpus
// depends only on (seed, n, meanLen), never on the worker count. A chunk
// writes its labels into its own range of labels, as its documents into dst,
// cutting them from one slab.
func labeledDocs(seed uint64, n, meanLen, workers int) ([]textgen.Document, []int, int) {
	model := textgen.NewReferenceModel()
	labels := make([]int, n)
	docs, err := datagen.Generate(seed, datagen.PlanChunks(int64(n), 256), workers,
		func(g *stats.RNG, ch datagen.Chunk, dst []textgen.Document) error {
			words := datagen.Slab[string]{Size: len(dst)*(20+meanLen/2)*9/8 + 16}
			for i := range dst {
				topic := g.IntN(model.Topics)
				labels[ch.Start+int64(i)] = topic
				dst[i] = words.Cut(20 + g.IntN(meanLen))
				for j := range dst[i] {
					dst[i][j] = model.TopicWord(g, topic)
				}
			}
			return nil
		})
	if err != nil {
		// The hidden model cannot fail by construction.
		panic(err)
	}
	return docs, labels, model.Topics
}

// trainCounts runs the nb-train job on eng over the labelled documents: per
// class, the count of every word ("label\x1fword") and of its documents
// ("label\x1f\x00docs"). Labels are below k. The input is cut from one arena
// and the keys from one table built per job, so the job allocates per chunk
// of records, not per document or per word.
func trainCounts(eng *mapreduce.Engine, docs []textgen.Document, labels []int, k int) ([]mapreduce.KV, error) {
	col, keys := trainKeys(docs, k)
	job := mapreduce.Job{
		Name: "nb-train",
		Map: func(label, text string, emit func(k, v string)) {
			l, _ := strconv.Atoi(label)
			row := keys[l]
			mapreduce.Words(text, func(w string) { emit(row[col[w]], "1") })
			emit(row[len(row)-1], "1")
		},
		Reduce: func(key string, values []string, emit func(k, v string)) {
			emit(key, strconv.Itoa(len(values)))
		},
	}
	out, _, err := eng.Run(job, mapreduce.TextInput(docs, func(i int) int { return labels[i] }))
	return out, err
}

// trainKeys returns nb-train's key table, cut from one string: for each label
// l below k, keys[l][col[w]] is l+"\x1f"+w for every word w of docs, and
// keys[l]'s last entry is l+"\x1f\x00docs".
func trainKeys(docs []textgen.Document, k int) (col map[string]int, keys [][]string) {
	col = map[string]int{}
	var words []string
	for _, d := range docs {
		for _, w := range d {
			if _, ok := col[w]; !ok {
				col[w] = len(words)
				words = append(words, w)
			}
		}
	}
	words = append(words, "\x00docs")
	size := len(words) * (len(strconv.Itoa(k)) + 1) // no label is longer than k's
	for _, w := range words {
		size += len(w)
	}
	var b strings.Builder
	b.Grow(k * size)
	keys = make([][]string, k)
	for l := range keys {
		label := strconv.Itoa(l)
		keys[l] = make([]string, len(words))
		for c, w := range words {
			off := b.Len()
			b.WriteString(label)
			b.WriteByte('\x1f')
			b.WriteString(w)
			keys[l][c] = b.String()[off:]
		}
	}
	return col, keys
}

func naiveBayes(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	n := p.Scale * 1000
	t0gen := c.Now()
	docs, labels, k := labeledDocs(p.Seed, n, 40, p.DatagenWorkers)
	c.RecordDatagen(c.Now().Sub(t0gen), int64(n))
	split := n * 4 / 5

	// ---- Training: per-class word counts as one MapReduce job.
	t0 := c.Now()
	out, err := trainCounts(mapreduce.New(p.Workers).Instrument(c), docs[:split], labels[:split], k)
	if err != nil {
		return err
	}
	c.Op("train").Observe(c.Now().Sub(t0))

	wordCounts := make([]map[string]float64, k)
	classTotals := make([]float64, k)
	classDocs := make([]float64, k)
	vocab := map[string]bool{}
	for i := range wordCounts {
		wordCounts[i] = make(map[string]float64)
	}
	for _, kv := range out {
		labelText, word, ok := strings.Cut(kv.Key, "\x1f")
		if !ok {
			return fmt.Errorf("naive-bayes: bad train key %q", kv.Key)
		}
		label, err := strconv.Atoi(labelText)
		if err != nil || label < 0 || label >= k {
			return fmt.Errorf("naive-bayes: bad label %q", labelText)
		}
		count, err := strconv.ParseFloat(kv.Value, 64)
		if err != nil {
			return err
		}
		if word == "\x00docs" {
			classDocs[label] = count
			continue
		}
		wordCounts[label][word] = count
		classTotals[label] += count
		vocab[word] = true
	}

	// ---- Classification of the held-out 20%.
	if err := ctx.Err(); err != nil {
		return err
	}
	t1 := c.Now()
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
	c.Op("classify").Observe(c.Now().Sub(t1))
	c.CounterRef("records").Add(int64(n))
	accuracy := float64(correct) / float64(n-split)
	c.CounterRef("accuracy_pct").Add(int64(accuracy * 100))

	// The hidden topics are well separated; anything below 80% means the
	// pipeline is broken (chance is 25%).
	if accuracy < 0.8 {
		return fmt.Errorf("naive-bayes: accuracy %.2f below 0.80", accuracy)
	}
	return nil
}
