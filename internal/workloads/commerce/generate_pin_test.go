package commerce

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
	"github.com/bdbench/bdbench/internal/stats"
)

// TestGenerateCallersPinned renders the output of every datagen.Generate
// caller that yields one item per plan slot at workers 1, 2 and 4, each over
// several chunks, and holds it to a digest recorded when chunks still
// returned their own slices for Generate to join. It lives here because
// labeledDocs is unexported; the generators it imports are all leaves.
func TestGenerateCallersPinned(t *testing.T) {
	ref := textgen.ReferenceCorpus(11, 120, 60)
	lda := textgen.NewLDA()
	if err := lda.Train(ref, 10, stats.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	orders := tablegen.ReferenceTable(3, 500)
	table := tablegen.ReferenceSpec(5)
	table.ChunkSize = 300
	corpus := func(w io.Writer, c textgen.Corpus, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range c {
			fmt.Fprintln(w, strings.Join(doc, " "))
		}
	}
	streamEvents := func(w io.Writer, gen streamgen.Generator, workers int) {
		for _, ev := range gen.GenerateParallel(7, 10000, workers) {
			fmt.Fprintln(w, ev.Seq, int64(ev.Offset), ev.Kind, ev.Key, ev.Value)
		}
	}
	for _, tc := range []struct {
		name, want string
		render     func(w io.Writer, workers int)
	}{
		{"textgen/random", "5ada66e6a086760f", func(w io.Writer, workers int) {
			r := textgen.RandomText{Dictionary: textgen.DefaultDictionary()}
			corpus(w, r.GenerateParallel(7, 1000, 12, workers), nil)
		}},
		{"textgen/lda", "0592491bce53e9f3", func(w io.Writer, workers int) {
			c, err := lda.GenerateParallel(7, 600, 20, workers)
			corpus(w, c, err)
		}},
		{"textgen/reference", "8aaa16c77833cb06", func(w io.Writer, workers int) {
			corpus(w, textgen.ReferenceCorpusParallel(7, 600, 20, workers), nil)
		}},
		{"graphgen/rmat", "d73bbb299e93c73b", func(w io.Writer, workers int) {
			for _, e := range graphgen.DefaultRMAT.GenerateParallel(7, 13, workers).Edges {
				fmt.Fprintln(w, e.Src, e.Dst)
			}
		}},
		{"streamgen", "b5f81c7a7fbcb9d3", func(w io.Writer, workers int) {
			gen := streamgen.Generator{Mix: streamgen.Mix{UpdateFraction: 0.2, DeleteFraction: 0.05}}
			for _, ev := range gen.GenerateParallel(7, 10000, workers) {
				fmt.Fprintln(w, ev.Seq, int64(ev.Offset), ev.Kind, ev.Key, ev.Value)
			}
		}},
		// windowed-count's and rolling-aggregate's generators, the ones
		// batch_mix runs: digests recorded while every event's key and
		// value were strings of their own.
		{"streamgen/windowed-count", "ced5eeb246ba6c3c", func(w io.Writer, workers int) {
			streamEvents(w, streamgen.Generator{EventsPerSec: 50000, Arrival: streamgen.ArrivalPoisson,
				KeySpace: 100, KeyChooser: stats.Zipf{Count: 100, S: 1.2}}, workers)
		}},
		{"streamgen/rolling-aggregate", "0ac4c4854d5c9ea2", func(w io.Writer, workers int) {
			streamEvents(w, streamgen.Generator{EventsPerSec: 50000, KeySpace: 20}, workers)
		}},
		{"tablegen", "1bac0640c716c28b", func(w io.Writer, workers int) {
			for _, row := range table.GenerateParallel(2000, workers).Rows {
				fmt.Fprintln(w, row)
			}
		}},
		{"weblog", "a5320b0b26e63ddb", func(w io.Writer, workers int) {
			recs, err := weblog.FromTableParallel(7, orders, 5000, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				fmt.Fprintln(w, string(r.AppendFormat(nil)))
			}
		}},
		{"commerce/labeledDocs", "c82784a1f15cc85e", func(w io.Writer, workers int) {
			docs, labels, _ := labeledDocs(7, 600, 30, workers)
			for i, doc := range docs {
				fmt.Fprintln(w, labels[i], strings.Join(doc, " "))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				h := sha256.New()
				tc.render(h, workers)
				if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
					t.Errorf("workers %d: digest %s, want %s", workers, got, tc.want)
				}
			}
		})
	}
}
