package textgen

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

func TestVocabularyInterning(t *testing.T) {
	v := NewVocabulary()
	a := v.Add("apple")
	b := v.Add("banana")
	a2 := v.Add("apple")
	if a != a2 {
		t.Fatal("re-adding a word changed its id")
	}
	if a == b {
		t.Fatal("distinct words share id")
	}
	if v.Size() != 2 {
		t.Fatalf("size %d, want 2", v.Size())
	}
	if v.Word(a) != "apple" || v.ID("banana") != b {
		t.Fatal("lookup broken")
	}
	if v.ID("missing") != -1 {
		t.Fatal("missing word should be -1")
	}
}

func TestBuildVocabularyAndEncode(t *testing.T) {
	c := Corpus{{"a", "b", "a"}, {"c"}}
	v := BuildVocabulary(c)
	if v.Size() != 3 {
		t.Fatalf("size %d, want 3", v.Size())
	}
	enc := v.Encode(c)
	if len(enc) != 2 || len(enc[0]) != 3 {
		t.Fatalf("encode shape wrong: %v", enc)
	}
	if enc[0][0] != enc[0][2] {
		t.Fatal("same word encoded differently")
	}
}

func TestCorpusTextRoundTrip(t *testing.T) {
	c := Corpus{{"hello", "world"}, {"foo"}}
	if got := c.Text(); got != "hello world\nfoo" {
		t.Fatalf("Text() = %q, want one document per line, words space-separated", got)
	}
	if c.Words() != 3 {
		t.Fatalf("Words() = %d, want 3", c.Words())
	}
}

func TestWordDistributionSumsToOne(t *testing.T) {
	c := ReferenceCorpus(1, 50, 40)
	v := BuildVocabulary(c)
	dist := WordDistribution(c, v)
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("word distribution sum %.6f", sum)
	}
}

func TestReferenceCorpusDeterministic(t *testing.T) {
	a := ReferenceCorpus(7, 20, 30)
	b := ReferenceCorpus(7, 20, 30)
	if a.Text() != b.Text() {
		t.Fatal("reference corpus not deterministic for same seed")
	}
	c := ReferenceCorpus(8, 20, 30)
	if a.Text() == c.Text() {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestReferenceCorpusShape(t *testing.T) {
	c := ReferenceCorpus(1, 100, 50)
	if len(c) != 100 {
		t.Fatalf("docs %d, want 100", len(c))
	}
	mean := float64(c.Words()) / 100
	if mean < 40 || mean > 60 {
		t.Fatalf("mean doc length %.1f, want ~50", mean)
	}
}

func TestLDATrainAndGenerate(t *testing.T) {
	ref := ReferenceCorpus(11, 120, 60)
	l := NewLDA()
	if _, err := l.Generate(stats.NewRNG(1), 1, 10); err != ErrNotTrained {
		t.Fatalf("Generate before Train: err = %v, want ErrNotTrained", err)
	}
	if err := l.Train(ref, 30, stats.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	syn, err := l.Generate(stats.NewRNG(13), 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != 50 {
		t.Fatalf("generated %d docs, want 50", len(syn))
	}
	// Every generated word must come from the learned dictionary.
	for _, d := range syn {
		for _, w := range d {
			if l.Vocabulary().ID(w) < 0 {
				t.Fatalf("generated word %q not in dictionary", w)
			}
		}
	}
}

func TestLDAImprovesOverRandomText(t *testing.T) {
	// The core veracity claim: an LDA-generated corpus is closer to the
	// reference corpus (in word-distribution KL divergence) than random
	// text over the same dictionary.
	ref := ReferenceCorpus(21, 150, 60)
	vocab := BuildVocabulary(ref)

	l := NewLDA()
	if err := l.Train(ref, 40, stats.NewRNG(22)); err != nil {
		t.Fatal(err)
	}
	syn, err := l.Generate(stats.NewRNG(23), 150, 60)
	if err != nil {
		t.Fatal(err)
	}
	random := RandomText{Dictionary: vocab.Words()}.Generate(stats.NewRNG(24), 150, 60)

	refDist := WordDistribution(ref, vocab)
	synDist := WordDistribution(syn, vocab)
	rndDist := WordDistribution(random, vocab)
	klSyn, err := stats.KLDivergence(refDist, synDist)
	if err != nil {
		t.Fatal(err)
	}
	klRnd, err := stats.KLDivergence(refDist, rndDist)
	if err != nil {
		t.Fatal(err)
	}
	if klSyn >= klRnd {
		t.Fatalf("LDA KL %.4f should beat random-text KL %.4f", klSyn, klRnd)
	}
}

func TestLDAEmptyCorpus(t *testing.T) {
	l := NewLDA()
	if err := l.Train(nil, 10, stats.NewRNG(1)); err == nil {
		t.Fatal("training on empty corpus should error")
	}
}

func TestMarkovTrainGenerate(t *testing.T) {
	ref := ReferenceCorpus(41, 100, 50)
	m := NewMarkov(2)
	if err := m.Train(ref); err != nil {
		t.Fatal(err)
	}
	if len(m.transitions) == 0 {
		t.Fatal("no states learned")
	}
	syn, err := m.Generate(stats.NewRNG(42), 30, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != 30 {
		t.Fatalf("generated %d docs, want 30", len(syn))
	}
	// Generated text must reuse training vocabulary only.
	vocab := BuildVocabulary(ref)
	for _, d := range syn {
		for _, w := range d {
			if vocab.ID(w) < 0 {
				t.Fatalf("markov emitted unseen word %q", w)
			}
		}
	}
}

func TestMarkovPreservesBigrams(t *testing.T) {
	// A deterministic corpus where "alpha" is always followed by "beta".
	doc := Document{}
	for i := 0; i < 50; i++ {
		doc = append(doc, "alpha", "beta", "gamma")
	}
	m := NewMarkov(1)
	if err := m.Train(Corpus{doc}); err != nil {
		t.Fatal(err)
	}
	syn, err := m.Generate(stats.NewRNG(43), 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range syn {
		for i := 0; i+1 < len(d); i++ {
			if d[i] == "alpha" && d[i+1] != "beta" {
				t.Fatalf("bigram violated: alpha followed by %q", d[i+1])
			}
		}
	}
}

func TestMarkovErrors(t *testing.T) {
	m := NewMarkov(0) // clamps to 1
	if m.Order != 1 {
		t.Fatalf("order %d, want 1", m.Order)
	}
	if err := m.Train(nil); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := m.Generate(stats.NewRNG(1), 1, 5); err == nil {
		t.Fatal("untrained Generate accepted")
	}
	tooShort := NewMarkov(5)
	if err := tooShort.Train(Corpus{{"a", "b"}}); err == nil {
		t.Fatal("corpus shorter than order accepted")
	}
}

func TestRandomTextModes(t *testing.T) {
	g := stats.NewRNG(51)
	dict := []string{"one", "two", "three"}
	fromDict := RandomText{Dictionary: dict}.Generate(g, 10, 20)
	for _, d := range fromDict {
		for _, w := range d {
			if w != "one" && w != "two" && w != "three" {
				t.Fatalf("dictionary mode emitted %q", w)
			}
		}
	}
}

func TestRandomTextZipfSampler(t *testing.T) {
	dict := DefaultDictionary()
	rt := RandomText{
		Dictionary: dict,
		Sampler:    stats.Zipf{Count: int64(len(dict)), S: 1.5},
	}
	c := rt.Generate(stats.NewRNG(52), 100, 50)
	ft := stats.NewFreqTable()
	for _, d := range c {
		for _, w := range d {
			ft.Observe(w)
		}
	}
	top := ft.TopK(1)
	if ft.Counts[top[0]] < uint64(c.Words()/20) {
		t.Fatalf("zipf sampling should concentrate mass; top word only %d/%d", ft.Counts[top[0]], c.Words())
	}
}

func TestDefaultDictionaryNoDuplicatesWithinGroups(t *testing.T) {
	d := DefaultDictionary()
	if len(d) == 0 {
		t.Fatal("empty default dictionary")
	}
	seen := map[string]bool{}
	for _, w := range d {
		if strings.TrimSpace(w) == "" {
			t.Fatal("blank word in dictionary")
		}
		if seen[w] {
			t.Fatalf("duplicate dictionary word %q", w)
		}
		seen[w] = true
	}
}

// TestDefaultDictionaryIsOneAllocation: the flat copy is the groups in
// order, built in one allocation.
func TestDefaultDictionaryIsOneAllocation(t *testing.T) {
	var want []string
	for _, group := range baseWords {
		want = append(want, group...)
	}
	if got := DefaultDictionary(); !slices.Equal(got, want) {
		t.Fatalf("DefaultDictionary() = %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 10 {
			DefaultDictionary()
		}
	})
	if allocs != 10 && !raceflag.Enabled {
		t.Errorf("10 DefaultDictionary calls: %.0f allocations, want 10", allocs)
	}
}

func TestQuickReferenceDocsNonEmpty(t *testing.T) {
	f := func(seed uint64) bool {
		c := ReferenceCorpus(seed%1000, 5, 10)
		if len(c) != 5 {
			return false
		}
		for _, d := range c {
			if len(d) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTextEmptyDictionaryPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Dictionary") {
			t.Fatalf("recovered %v, want a panic naming Dictionary", r)
		}
	}()
	RandomText{}.Generate(stats.NewRNG(1), 1, 5)
}
