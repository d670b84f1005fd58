package mapreduce

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/bdbench/bdbench/internal/stats"
)

// TextInput returns one record per document for a text job: record i's key
// is key(i) in decimal, and its value is docs[i]'s words joined by single
// spaces, which Words splits back into the same words. Keys and values are
// cut from one Arena, so the input costs a constant number of allocations
// whatever its document count.
func TextInput[D ~[]string](docs []D, key func(i int) int) []KV {
	in := make([]KV, len(docs))
	Arena(in, nil, func(_ *stats.RNG, i int, b *strings.Builder) (int, int) {
		var num [20]byte
		k := strconv.AppendInt(num[:0], int64(key(i)), 10)
		v := 0
		for j, w := range docs[i] {
			if j > 0 {
				v++
			}
			v += len(w)
		}
		if b != nil {
			b.Write(k)
			for j, w := range docs[i] {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(w)
			}
		}
		return len(k), v
	})
	return in
}

// Words calls f with each word of text, in order: the tokens
// strings.Fields(text) returns, found without building a slice or copying a
// byte. A word is a maximal run of characters that unicode.IsSpace does not
// call white space; text need not be valid UTF-8.
//
//bdbench:hotpath
func Words(text string, f func(word string)) {
	start := -1 // where the word being walked began, or -1 between words
	for i := 0; i < len(text); {
		size, space := 1, false
		if c := text[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			f(text[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		f(text[start:])
	}
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
