package stats

import (
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/raceflag"
)

// allocsOver returns the allocations of n calls of f measured as one run, a
// count AllocsPerRun(n, f) would divide by n and truncate: exact, so one
// allocation in n calls fails a test that wants none.
func allocsOver(n int, f func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for range n {
			f()
		}
	})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	// Consume some of b's stream before splitting; children must agree.
	for i := 0; i < 17; i++ {
		b.Uint64()
	}
	ca := a.Split("chunk", 3)
	cb := b.Split("chunk", 3)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("split children diverged at step %d", i)
		}
	}
}

func TestSplitChildrenDiffer(t *testing.T) {
	g := NewRNG(7)
	c0 := g.Split("chunk", 0)
	c1 := g.Split("chunk", 1)
	cother := g.Split("other", 0)
	if c0.Uint64() == c1.Uint64() && c0.Uint64() == c1.Uint64() {
		t.Fatal("children with different indexes produced identical streams")
	}
	if c0.Seed() == cother.Seed() {
		t.Fatal("children with different labels share a seed")
	}
}

func TestRandomWordLengths(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		w := g.RandomWord(3, 9)
		if len(w) < 3 || len(w) > 9 {
			t.Fatalf("word %q out of requested length range", w)
		}
	}
}

// TestRandomWordSequencePinned: the words and the draws left in the stream
// after them are what they were when RandomWord built a byte slice and
// converted it; every corpus digest rests on this sequence. One allocation a
// word, the string itself.
func TestRandomWordSequencePinned(t *testing.T) {
	g := NewRNG(2014)
	for i, want := range []string{"ducp", "xvnpq", "liocr", "texmzo", "hzyzrnl", "pwpbw"} {
		if w := g.RandomWord(3, 9); w != want {
			t.Fatalf("word %d = %q, want %q", i, w, want)
		}
	}
	const long = "yijpsrduaficbpvxwprcqujlerwiaxmyhudmqmeazqgukolyfjcjuzrrapalziquhibmtbucionsgjzjpxgsiyprdurtxgkflyor"
	if w := g.RandomWord(100, 100); w != long {
		t.Fatalf("100-letter word = %q", w)
	}
	if next := g.IntN(1000000); next != 597682 {
		t.Fatalf("draw after the words = %d, want 597682", next)
	}
	for _, n := range []int{8, 100} {
		if allocs := allocsOver(200, func() { g.RandomWord(n, n) }); allocs != 200 && !raceflag.Enabled {
			t.Fatalf("200 RandomWord(%d, %d) allocate %v times, want 200", n, n, allocs)
		}
	}
}

// TestWriteWordIsRandomWord: words written into one builder are the words
// RandomWord returns one by one — same bytes, same draws left in the stream —
// at fixed and ranged lengths, and a builder grown beforehand is not grown.
func TestWriteWordIsRandomWord(t *testing.T) {
	for _, bounds := range [][2]int{{100, 100}, {3, 9}, {1, 1}, {60, 70}, {0, 0}, {5, 2}} {
		a, b := NewRNG(2014), NewRNG(2014)
		var words, written strings.Builder
		for i := 0; i < 20; i++ {
			words.WriteString(a.RandomWord(bounds[0], bounds[1]))
			b.WriteWord(&written, bounds[0], bounds[1])
		}
		if words.String() != written.String() {
			t.Fatalf("bounds %v: WriteWord wrote %q, RandomWord returned %q", bounds, written.String(), words.String())
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("bounds %v: the draw after the words differs: %d, %d", bounds, x, y)
		}
	}
	g := NewRNG(7)
	allocs := allocsOver(100, func() {
		var b strings.Builder
		b.Grow(1000)
		for i := 0; i < 10; i++ {
			g.WriteWord(&b, 100, 100)
		}
	})
	if allocs != 100 && !raceflag.Enabled {
		t.Fatalf("ten words into a grown builder, 100 times: %v allocations, want 100 (the Grows)", allocs)
	}
}

// TestAppendWordIsWriteWord: words appended to a slice are the words
// WriteWord writes — same bytes, same draws left in the stream — at fixed and
// ranged lengths, and a slice with room is not grown.
func TestAppendWordIsWriteWord(t *testing.T) {
	for _, bounds := range [][2]int{{100, 100}, {3, 9}, {1, 1}, {60, 70}, {0, 0}, {5, 2}} {
		a, b := NewRNG(2014), NewRNG(2014)
		var written strings.Builder
		appended := []byte("prefix:")
		for i := 0; i < 20; i++ {
			a.WriteWord(&written, bounds[0], bounds[1])
			appended = b.AppendWord(appended, bounds[0], bounds[1])
		}
		if got := string(appended); got != "prefix:"+written.String() {
			t.Fatalf("bounds %v: AppendWord appended %q, WriteWord wrote %q", bounds, got, written.String())
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("bounds %v: the draw after the words differs: %d, %d", bounds, x, y)
		}
	}
	g := NewRNG(7)
	buf := make([]byte, 0, 1000)
	allocs := allocsOver(100, func() {
		dst := buf[:0]
		for i := 0; i < 10; i++ {
			dst = g.AppendWord(dst, 100, 100)
		}
	})
	if allocs != 0 && !raceflag.Enabled {
		t.Fatalf("ten words into a slice with room, 100 times: %v allocations, want 0", allocs)
	}
}

// TestFNV64MatchesHashFNV: the loop is hash/fnv's 64-bit FNV-1a, byte for
// byte, so partition placement and every digest built on it hold.
func TestFNV64MatchesHashFNV(t *testing.T) {
	inputs := []string{"", "a", "user000000000042", "héllo wörld", "\x00\xff\xfe", string([]byte{0x80, 0, 0xc3, 0x28})}
	g := NewRNG(3)
	for n := 1; n <= 200; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(g.IntN(256))
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		if got, want := FNV64(s), h.Sum64(); got != want {
			t.Fatalf("FNV64(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
	}
	long := strings.Repeat("k", 100)
	if allocs := allocsOver(100, func() { FNV64(long) }); allocs != 0 && !raceflag.Enabled {
		t.Fatalf("100 FNV64 of a 100-byte key allocate %v times, want 0", allocs)
	}
}

func TestRandomWordDegenerateBounds(t *testing.T) {
	g := NewRNG(1)
	if w := g.RandomWord(0, 0); len(w) != 1 {
		t.Fatalf("RandomWord(0,0) = %q, want single letter", w)
	}
	if w := g.RandomWord(5, 2); len(w) != 5 {
		t.Fatalf("RandomWord(5,2) = %q, want length clamped to min", w)
	}
}

func TestMix64IsBijectiveOnSample(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		m := Mix64(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("Mix64 collision: %d and %d both map to %d", prev, i, m)
		}
		seen[m] = i
	}
}

func TestFNV64Stable(t *testing.T) {
	if FNV64("bdbench") != FNV64("bdbench") {
		t.Fatal("FNV64 is not stable")
	}
	if FNV64("a") == FNV64("b") {
		t.Fatal("FNV64 trivial collision")
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit fraction %.4f, want ~0.25", frac)
	}
}

func TestQuickSplitDeterminism(t *testing.T) {
	f := func(seed uint64, idx uint8) bool {
		a := NewRNG(seed).Split("x", int(idx))
		b := NewRNG(seed).Split("x", int(idx))
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
