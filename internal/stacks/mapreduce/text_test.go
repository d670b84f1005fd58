package mapreduce

import (
	"slices"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen"
	_ "github.com/bdbench/bdbench/internal/datagen/corpora" // registers the corpus generators
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/raceflag"
)

// words collects what Words yields.
func words(text string) []string {
	var out []string
	Words(text, func(w string) { out = append(out, w) })
	return out
}

// TestWordsIsFields: Words yields exactly strings.Fields' tokens on every
// registered corpus, on the text inputs the workloads encode, and on runs of
// every kind of white space, Unicode and invalid UTF-8 included.
func TestWordsIsFields(t *testing.T) {
	texts := []string{
		"", " ", "\t\n", "one", " one", "one ", "  one  two\t\tthree\n\nfour ",
		"\tlead", "trail\n", "a\vb\fc\rd", "mixed \t\n\r\v\f spaces",
		"nbsp\u00a0split", "nel\u0085split", "em\u2003space\u3000ideographic",
		"zero\u200bwidth is not space", "héllo wörld", "bad\xffutf8 \xc3", "\xe2\x80",
	}
	for _, name := range datagen.Generators() {
		cg, _ := datagen.Lookup(name)
		corpus, _, err := datagen.Build(cg, 2014, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, string(corpus))
	}
	for _, d := range TextInput(textgen.ReferenceCorpusParallel(2014, 300, 40, 2), func(i int) int { return i }) {
		texts = append(texts, d.Value)
	}
	for _, text := range texts {
		if got, want := words(text), strings.Fields(text); !slices.Equal(got, want) {
			t.Fatalf("Words(%.60q) = %.60q, strings.Fields says %.60q", text, got, want)
		}
	}
}

// TestTextInputJoinsWords: TextInput's records are the decimal keys and the
// space-joined documents, empty documents included.
func TestTextInputJoinsWords(t *testing.T) {
	docs := []textgen.Document{{"a", "bb"}, {}, {"ccc"}}
	in := TextInput(docs, func(i int) int { return 10 * i })
	want := []KV{{"0", "a bb"}, {"10", ""}, {"20", "ccc"}}
	if !slices.Equal(in, want) {
		t.Fatalf("TextInput = %q, want %q", in, want)
	}
}

// TestWordsAllocatesNothing: 1 000 walks of a text measured as one run
// allocate exactly nothing.
func TestWordsAllocatesNothing(t *testing.T) {
	text := " the  quick\tbrown fox jumps\nover héllo "
	n := 0
	count := func(string) { n++ }
	if allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			Words(text, count)
		}
	}); allocs != 0 && !raceflag.Enabled {
		t.Fatalf("1000 walks allocated %v times, want 0", allocs)
	}
	if n != 2*1000*7 {
		t.Fatalf("walked %d words, want %d", n, 2*1000*7)
	}
}
