// Command datagen is the standalone 4V data generator: it emits synthetic
// data sets of any supported source kind to stdout, with volume (-size),
// velocity (-rate, -updates), variety (-kind, -format) and veracity
// (-model) under user control — the paper's Function-layer data generators
// exposed directly.
//
//	datagen -kind text -model lda -size 1000 > corpus.txt
//	datagen -kind table -format csv -size 100000 > orders.csv
//	datagen -kind graph -size 16 > edges.tsv           (size = log2 vertices)
//	datagen -kind stream -rate 10000 -updates 0.3 -size 50000 > stream.jsonl
//	datagen -kind weblog -size 10000 > access.log
//	datagen -kind resume -size 1000 > resumes.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bdbench/bdbench/internal/datagen/formats"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/resume"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
	"github.com/bdbench/bdbench/internal/stats"
)

func main() {
	kind := flag.String("kind", "text", "data source kind: text|table|graph|stream|weblog|resume")
	size := flag.Int64("size", 1000, "volume: docs/rows/log2-vertices/events/records")
	seed := flag.Uint64("seed", 42, "generation seed")
	model := flag.String("model", "lda", "text model: lda|markov|random (veracity)")
	format := flag.String("format", "csv", "table format: csv|tsv|jsonl")
	rate := flag.Float64("rate", 0, "stream event rate in events/s: spaces the events' timestamps 1/rate apart on average (0 = 1e6/s); the output is written as fast as it generates, never paced")
	updates := flag.Float64("updates", 0, "stream update fraction (velocity as update frequency)")
	workers := flag.Int("workers", 4, "parallel generators; the output does not depend on it (resume has no chunked path and ignores it)")
	flag.Parse()

	if err := run(os.Stdout, *kind, *size, *seed, *model, *format, *rate, *updates, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, kind string, size int64, seed uint64, model, format string, rate, updates float64, workers int) (err error) {
	w := bufio.NewWriter(out)
	defer func() {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}()
	switch kind {
	case "text":
		return genText(w, int(size), seed, model, workers)
	case "table":
		spec := tablegen.ReferenceSpec(seed)
		tab := spec.GenerateParallel(size, workers)
		return formats.WriteTable(w, tab, formats.Format(format))
	case "graph":
		g := graphgen.DefaultRMAT.GenerateParallel(seed, int(size), workers)
		return formats.WriteEdgeList(w, g)
	case "stream":
		gen := streamgen.Generator{
			EventsPerSec: rate,
			Arrival:      streamgen.ArrivalPoisson,
			Mix:          streamgen.Mix{UpdateFraction: updates},
		}
		enc := json.NewEncoder(w)
		for _, ev := range gen.GenerateParallel(seed, size, workers) {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	case "weblog":
		orders := tablegen.ReferenceTable(seed, 2000)
		recs, err := weblog.Generator{}.FromTableParallel(seed+1, orders, int(size), workers)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, weblog.FormatAll(recs))
		return err
	case "resume":
		rs := resume.Generator{}.Generate(stats.NewRNG(seed), int(size))
		body, err := resume.MarshalJSONL(rs)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, body)
		return err
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
}

func genText(w io.Writer, docs int, seed uint64, model string, workers int) error {
	var c textgen.Corpus
	var err error
	switch model {
	case "lda":
		lda := textgen.NewLDA(4, 0, 0)
		if err := lda.Train(textgen.ReferenceCorpus(seed, 200, 60), 25, stats.NewRNG(seed+1)); err != nil {
			return err
		}
		c, err = lda.GenerateParallel(seed+2, docs, 60, workers)
	case "markov":
		m := textgen.NewMarkov(2)
		if err := m.Train(textgen.ReferenceCorpus(seed, 200, 60)); err != nil {
			return err
		}
		c, err = m.GenerateParallel(seed+2, docs, 60, workers)
	case "random":
		c = textgen.RandomText{Dictionary: textgen.DefaultDictionary()}.GenerateParallel(seed+2, docs, 60, workers)
	default:
		return fmt.Errorf("unknown text model %q", model)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, c.Text())
	return err
}
