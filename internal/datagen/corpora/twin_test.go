package corpora

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
)

// structuredTwin renders each corpus the long way: its generator's
// structured API at the corpus seed and scale, printed line by line with fmt
// and the types' own String/AppendFormat methods.
var structuredTwin = map[string]func(t *testing.T, seed uint64, scale int) string{
	"text": func(_ *testing.T, seed uint64, scale int) string {
		var sb strings.Builder
		for _, doc := range (textgen.RandomText{Dictionary: textgen.DefaultDictionary()}).GenerateParallel(seed, scale*1000, 12, 3) {
			sb.WriteString(strings.Join(doc, " ") + "\n")
		}
		return sb.String()
	},
	"table": func(_ *testing.T, seed uint64, scale int) string {
		var sb strings.Builder
		for _, row := range tablegen.ReferenceSpec(seed).GenerateParallel(int64(scale)*2000, 3).Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			sb.WriteString(strings.Join(cells, "\t") + "\n")
		}
		return sb.String()
	},
	"stream": func(_ *testing.T, seed uint64, scale int) string {
		var sb strings.Builder
		gen := streamgen.Generator{Mix: streamgen.Mix{UpdateFraction: 0.2, DeleteFraction: 0.05}}
		for _, ev := range gen.GenerateParallel(seed, int64(scale)*10000, 3) {
			fmt.Fprintf(&sb, "%d\t%d\t%s\t%s\t%s\n", ev.Seq, int64(ev.Offset), ev.Kind, ev.Key, ev.Value)
		}
		return sb.String()
	},
	"weblog": func(t *testing.T, seed uint64, scale int) string {
		recs, err := weblog.FromTableParallel(seed, referenceOrders(), scale*5000, 3)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range recs {
			sb.WriteString(string(r.AppendFormat(nil)) + "\n")
		}
		return sb.String()
	},
	"graph": func(_ *testing.T, seed uint64, scale int) string {
		var sb strings.Builder
		for _, e := range graphgen.DefaultRMAT.GenerateParallel(seed, scale+10, 3).Edges {
			fmt.Fprintf(&sb, "%d\t%d\n", e.Src, e.Dst)
		}
		return sb.String()
	},
}

// pinnedDigests are the SHA-256 digests of the built-in corpora, recorded
// when every generator still printed through fmt into a fresh buffer per
// chunk; a faster rendering path must reproduce them byte for byte.
var pinnedDigests = map[string]string{
	"text/seed=7/scale=1":      "5ada66e6a086760fa42d1c639870eff912974023087a26a712fd76cc1fd74cef",
	"text/seed=7/scale=2":      "379fa2214234ca885f7bd10c9e5cecc9052d309124465a5edc07f3f19e936801",
	"text/seed=2014/scale=1":   "4755d70dfff2053407be756dfb0b5512a04149eb89e161cdd4dbbfcb0e410833",
	"text/seed=2014/scale=2":   "d68f336a5daeb88c33c66e1d33fb49f028a81dfe80aab579529487440b058e29",
	"table/seed=7/scale=1":     "8695e312a336c8fbfc3c9cd936fea9822f268472ae481726ae9cc95515fcd6e3",
	"table/seed=7/scale=2":     "dfd3b163090e5f550fe8b4edf843bf54ea1da0f97bdf780756709f7de58d7344",
	"table/seed=2014/scale=1":  "1585869055c3f1216bfc619297cbdfc5ed9c602c75d9dd6af7fe52e0a341d48c",
	"table/seed=2014/scale=2":  "13225cb425396827555757afb6cebb9dbd0c93701eacf10773d5786bc49d38b5",
	"stream/seed=7/scale=1":    "9c57b188f49462e0e0af20fee8a3db513821960701537dcbfe80adbcf8d64460",
	"stream/seed=7/scale=2":    "6b16202b619230ab84902260a4a97c7ef8c15a82048ccc155af9f4a6dbac5a0e",
	"stream/seed=2014/scale=1": "d7e4384f3e63886d90b9e1be6fba43319688805591d748069e41f4441bfd06fe",
	"stream/seed=2014/scale=2": "93d4a0251101db6f994da451a1612126768db3a5b7536e61b793c69dea91ee1e",
	"weblog/seed=7/scale=1":    "95d38b29a286785529b8e4a940d4c68d56997175e37f96591b10b86c45748063",
	"weblog/seed=7/scale=2":    "2f1cc9dfe58df98a0687dc135c9eaaac71daa591ee3d900b305d20ef1d8fa25d",
	"weblog/seed=2014/scale=1": "8c3b2d1b142ed14986835d3fed81c22b337af33acbfd637ffff388e7f611cd8d",
	"weblog/seed=2014/scale=2": "2132d64aef7f34ae9d17fd99369ee6258470491f62560e31118319863757dee8",
	"graph/seed=7/scale=1":     "d6e799624cc5a31ef05933156a4cf9ba6c092236222cfc74e6a77d145f0b8542",
	"graph/seed=7/scale=2":     "87adf116dd2993b535e2ba47a629be987fd6a37443c50311545efe55f44299f1",
	"graph/seed=2014/scale=1":  "b36dc3788b00f391212cde99d635324ac60e9f987983cb319b95ff6cd2e8bcef",
	"graph/seed=2014/scale=2":  "9040b8ae0f7e2347fedfe0f31d3d6bb2f51f2c94448c4ae110796b0f490ba336",
}

type twinCase struct {
	name  string
	seed  uint64
	scale int
}

func twinCases() []twinCase {
	var cases []twinCase
	for _, name := range []string{"text", "table", "stream", "weblog", "graph"} {
		for _, seed := range []uint64{7, 2014} {
			for _, scale := range []int{1, 2} {
				cases = append(cases, twinCase{name, seed, scale})
			}
		}
	}
	return cases
}

func (c twinCase) String() string { return fmt.Sprintf("%s/seed=%d/scale=%d", c.name, c.seed, c.scale) }

// TestCorpusIsItsStructuredTwin: every built-in corpus is its generator's
// structured output rendered one line per item — 5 corpora × seeds 7 and
// 2014 × scales 1 and 2.
func TestCorpusIsItsStructuredTwin(t *testing.T) {
	for _, c := range twinCases() {
		t.Run(c.String(), func(t *testing.T) {
			cg, _ := datagen.Lookup(c.name)
			got, _, err := datagen.Build(cg, c.seed, c.scale, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := structuredTwin[c.name](t, c.seed, c.scale)
			if string(got) != want {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(want, "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("line %d: corpus %q, structured %q", i, gl[i], wl[i])
					}
				}
				t.Fatalf("corpus has %d lines, structured output %d", len(gl), len(wl))
			}
		})
	}
}

// TestCorpusDigestsPinned: the same 20 corpora digest to what they did
// before any rendering change.
func TestCorpusDigestsPinned(t *testing.T) {
	for _, c := range twinCases() {
		cg, _ := datagen.Lookup(c.name)
		got, stat, err := datagen.Build(cg, c.seed, c.scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(got)
		if d := hex.EncodeToString(sum[:]); d != stat.Digest {
			t.Fatalf("%v: Stat.Digest %s, corpus hashes to %s", c, stat.Digest, d)
		}
		if want := pinnedDigests[c.String()]; stat.Digest != want {
			t.Errorf("%v: digest %s, pinned %s", c, stat.Digest, want)
		}
	}
}
