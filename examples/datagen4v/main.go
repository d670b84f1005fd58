// The datagen4v example demonstrates the 4V properties of bdbench's data
// generators one axis at a time via the public datagen facades: volume
// scaling, velocity control (rate, update frequency and processing speed),
// variety of data sources, and measured veracity of random and LDA text.
//
//	go run ./examples/datagen4v
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/bdbench/bdbench/datagen"
	"github.com/bdbench/bdbench/datagen/streamgen"
	"github.com/bdbench/bdbench/datagen/tablegen"
	"github.com/bdbench/bdbench/datagen/textgen"
	"github.com/bdbench/bdbench/datagen/veracity"
	"github.com/bdbench/bdbench/datagen/weblog"
)

func main() {
	// ---- Volume: the same spec at three scale factors.
	fmt.Println("VOLUME — one spec, three scale factors:")
	spec := tablegen.ReferenceSpec(1)
	for _, sf := range []int64{1000, 10000, 100000} {
		t0 := time.Now()
		tab := spec.GenerateParallel(sf, 8)
		fmt.Printf("  %7d rows in %8v\n", tab.NumRows(), time.Since(t0).Round(time.Millisecond))
	}

	// ---- Velocity: generation rate, update frequency, processing speed.
	fmt.Println("\nVELOCITY — three meanings (§2.1):")
	paced := make(chan streamgen.Event)
	go func() {
		for range paced { // drain: Run closes the channel when it returns
		}
	}()
	achieved, err := streamgen.Generator{EventsPerSec: 5000}.Run(context.Background(), datagen.NewRNG(1), 2500, paced)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  generation rate: target 5000/s, achieved %.0f/s\n", achieved)

	gen := streamgen.Generator{EventsPerSec: 100000, Mix: streamgen.Mix{UpdateFraction: 0.25, DeleteFraction: 0.05}}
	events := gen.Generate(datagen.NewRNG(2), 20000)
	updates := 0
	for _, e := range events {
		if e.Kind == streamgen.OpUpdate {
			updates++
		}
	}
	fmt.Printf("  update frequency: target 25%%, achieved %.1f%%\n", 100*float64(updates)/float64(len(events)))

	rate := streamgen.MeasureProcessingSpeed(events, func(streamgen.Event) {})
	fmt.Printf("  processing speed: %.0f events/s sustained\n", rate)

	// ---- Variety: text, table and the web log derived from the table.
	fmt.Println("\nVARIETY — data sources:")
	corpus := textgen.ReferenceCorpus(3, 50, 40)
	fmt.Printf("  text:    %d documents (unstructured)\n", len(corpus))
	orders := tablegen.ReferenceTable(3, 500)
	fmt.Printf("  table:   %d rows x %d cols (structured)\n", orders.NumRows(), len(orders.Schema.Cols))
	logs, err := weblog.FromTable(datagen.NewRNG(4), orders, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  weblog:  %d lines (semi-structured, derived from tables)\n", len(logs))

	// ---- Veracity: measured divergence per generator family.
	fmt.Println("\nVERACITY — measured KL divergence from the real corpus:")
	raw := textgen.ReferenceCorpus(7, 150, 60)
	vocab := textgen.BuildVocabulary(raw)
	score := func(c textgen.Corpus) float64 {
		r, err := veracity.Text(raw, c)
		if err != nil {
			log.Fatal(err)
		}
		return r.Score()
	}
	random := textgen.RandomText{Dictionary: vocab.Words()}.Generate(datagen.NewRNG(8), 150, 60)
	fmt.Printf("  random text (HiBench-style):      %.4f\n", score(random))
	lda := textgen.NewLDA()
	if err := lda.Train(raw, 30, datagen.NewRNG(10)); err != nil {
		log.Fatal(err)
	}
	ld, err := lda.Generate(datagen.NewRNG(11), 150, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  LDA (BigDataBench-style):         %.4f\n", score(ld))
}
