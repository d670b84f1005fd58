// The searchengine example exercises the search-engine application domain
// end to end on the public facades: generate a document corpus with the
// LDA model, build an inverted index with a MapReduce job, rank a
// hyperlink graph with PageRank on the BSP engine, and answer a query by
// combining both.
//
//	go run ./examples/searchengine
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"github.com/bdbench/bdbench/datagen"
	"github.com/bdbench/bdbench/datagen/graphgen"
	"github.com/bdbench/bdbench/datagen/textgen"
	"github.com/bdbench/bdbench/stacks/graphengine"
	"github.com/bdbench/bdbench/stacks/mapreduce"
)

func main() {
	const nDocs = 1 << 10

	// 1. Text data: learn from the "real" corpus, then synthesize pages.
	raw := textgen.ReferenceCorpus(1, 200, 60)
	lda := textgen.NewLDA()
	if err := lda.Train(raw, 25, datagen.NewRNG(2)); err != nil {
		log.Fatal(err)
	}
	pages, err := lda.Generate(datagen.NewRNG(3), nDocs, 50)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the inverted index as a MapReduce job.
	input := make([]mapreduce.KV, len(pages))
	for i, d := range pages {
		input[i] = mapreduce.KV{Key: strconv.Itoa(i), Value: strings.Join(d, " ")}
	}
	eng := mapreduce.New(8)
	indexOut, st, err := eng.Run(mapreduce.Job{
		Name: "index",
		Map: func(docID, text string, emit func(k, v string)) {
			seen := map[string]bool{}
			for _, w := range strings.Fields(text) {
				if !seen[w] {
					emit(w, docID)
					seen[w] = true
				}
			}
		},
		Reduce: func(word string, docs []string, emit func(k, v string)) {
			emit(word, strings.Join(docs, ","))
		},
	}, input)
	if err != nil {
		log.Fatal(err)
	}
	index := make(map[string][]string, len(indexOut))
	for _, kv := range indexOut {
		index[kv.Key] = strings.Split(kv.Value, ",")
	}
	fmt.Printf("indexed %d pages, %d terms (%d bytes shuffled)\n", nDocs, len(index), st.ShuffleBytes)

	// 3. Rank the link graph (RMAT web graph over the same page ids).
	g := graphgen.DefaultRMAT.Generate(datagen.NewRNG(4), 10) // 2^10 pages
	res, err := graphengine.New(8).Run(g, graphengine.PageRank{}, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pagerank: %d supersteps, %d messages\n", res.Supersteps, res.MessagesSent)

	// 4. Query: lexical match filtered through rank ordering.
	query := "data storage"
	candidates := map[string]bool{}
	for i, term := range strings.Fields(query) {
		postings := index[term]
		if i == 0 {
			for _, d := range postings {
				candidates[d] = true
			}
			continue
		}
		next := map[string]bool{}
		for _, d := range postings {
			if candidates[d] {
				next[d] = true
			}
		}
		candidates = next
	}
	type hit struct {
		doc  int
		rank float64
	}
	var hits []hit
	for d := range candidates {
		id, _ := strconv.Atoi(d)
		if id < int(g.N) {
			hits = append(hits, hit{doc: id, rank: res.Values[id]})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].rank > hits[j].rank })
	fmt.Printf("query %q matched %d pages; top results by rank:\n", query, len(hits))
	for i, h := range hits {
		if i == 5 {
			break
		}
		fmt.Printf("  page %4d  rank %.4f\n", h.doc, h.rank)
	}
}
