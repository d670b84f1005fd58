package suites

import (
	"regexp"
	"strings"
	"testing"
)

func TestArchitectureLayers(t *testing.T) {
	layers := Architecture()
	if len(layers) != 3 {
		t.Fatalf("layers %d, want 3 (Figure 2)", len(layers))
	}
	names := []string{"User Interface Layer", "Function Layer", "Execution Layer"}
	for i, l := range layers {
		if l.Name != names[i] {
			t.Fatalf("layer %d = %s", i, l.Name)
		}
		if len(l.Components) == 0 {
			t.Fatalf("layer %s empty", l.Name)
		}
	}
	text := FormatArchitecture(layers)
	if !strings.Contains(text, "Function Layer") || !strings.Contains(text, "testgen") {
		t.Fatal("formatted architecture incomplete")
	}
	// A component written as pkg.Ident names a Go identifier, which free
	// text cannot keep honest (core.Plan outlived its deletion here). Each
	// one printed must be on this list, checked by hand against the code.
	exists := map[string]bool{"bdbench.Scenario": true}
	for _, id := range regexp.MustCompile(`\b[a-z]\w*\.[A-Z]\w*`).FindAllString(text, -1) {
		if !exists[id] {
			t.Errorf("Figure 2 names %s, which is not a known identifier", id)
		}
	}
}

func TestTextDataGenProcess(t *testing.T) {
	out, err := TextDataGenProcess(9, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 4 {
		t.Fatalf("steps %d, want 4 (Figure 3)", len(out.Steps))
	}
	if out.Records != 300 {
		t.Fatalf("records %d", out.Records)
	}
	if out.FormatBytes == 0 {
		t.Fatal("no converted output")
	}
	if out.Divergence <= 0 || out.Divergence > 1 {
		t.Fatalf("divergence %v", out.Divergence)
	}
}

func TestTableDataGenProcess(t *testing.T) {
	out, err := TableDataGenProcess(10, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 4 {
		t.Fatalf("steps %d", len(out.Steps))
	}
	if out.Records != 2000 || out.FormatBytes == 0 {
		t.Fatalf("outcome %+v", out)
	}
	// Full-profile generation: divergence near the floor.
	if out.Divergence > 0.1 {
		t.Fatalf("profiled table divergence %v, want small", out.Divergence)
	}
}

// Same seed ⇒ same data at any worker count: Figure 3's volume, converted
// size and veracity score may not move with the pool size.
func TestFigure3IndependentOfWorkers(t *testing.T) {
	processes := map[string]func(workers int) (*DataGenOutcome, error){
		"text":  func(w int) (*DataGenOutcome, error) { return TextDataGenProcess(2014, 500, w) },
		"table": func(w int) (*DataGenOutcome, error) { return TableDataGenProcess(2014, 5000, w) },
	}
	for name, process := range processes {
		want, err := process(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := process(workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Records != want.Records || got.FormatBytes != want.FormatBytes || got.Divergence != want.Divergence {
				t.Errorf("%s at %d workers: records %d, bytes %d, divergence %v; at 1 worker %d, %d, %v",
					name, workers, got.Records, got.FormatBytes, got.Divergence, want.Records, want.FormatBytes, want.Divergence)
			}
		}
	}
}
