package main

import (
	"bytes"
	"testing"
)

// Every kind with a chunked path emits the same bytes at any -workers; the
// sizes span more than one generation chunk so the pool has work to split.
func TestOutputIndependentOfWorkers(t *testing.T) {
	cases := []struct {
		kind, model string
		size        int64
	}{
		{"text", "lda", 600},
		{"text", "markov", 600},
		{"text", "random", 600},
		{"table", "", 20000},
		{"graph", "", 10},
		{"stream", "", 9000},
		{"weblog", "", 5000},
	}
	for _, c := range cases {
		var one, four bytes.Buffer
		if err := run(&one, c.kind, c.size, 42, c.model, "csv", 1000, 0.3, 1); err != nil {
			t.Fatalf("%s %s: %v", c.kind, c.model, err)
		}
		if err := run(&four, c.kind, c.size, 42, c.model, "csv", 1000, 0.3, 4); err != nil {
			t.Fatalf("%s %s: %v", c.kind, c.model, err)
		}
		if one.Len() == 0 || !bytes.Equal(one.Bytes(), four.Bytes()) {
			t.Errorf("%s %s: %d bytes at -workers 1, %d at -workers 4, and they differ or are empty",
				c.kind, c.model, one.Len(), four.Len())
		}
	}
}

func TestUnknownKindAndModel(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "video", 1, 42, "lda", "csv", 0, 0, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run(&out, "text", 1, 42, "gpt", "csv", 0, 0, 1); err == nil {
		t.Error("unknown text model accepted")
	}
}
