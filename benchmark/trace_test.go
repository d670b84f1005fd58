package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
)

func TestRecorderLinksSpansToTheirParents(t *testing.T) {
	rec := NewRecorder()
	ctx, endRoot := rec.StartRoot(context.Background(), 7, "rep", "w")
	childCtx, endChild := rec.Start(ctx, "scenario.run", "")
	_, endGrandchild := rec.Start(childCtx, "engine.run", "")
	endGrandchild()
	endChild()
	_, endSibling := rec.Start(ctx, "runstore.encode", "")
	endSibling()
	endRoot()

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	wantParents := map[string]int{"rep": 0, "scenario.run": spans[0].ID, "engine.run": spans[1].ID, "runstore.encode": spans[0].ID}
	for _, s := range spans {
		if s.Parent != wantParents[s.Name] {
			t.Errorf("%s has parent %d, want %d", s.Name, s.Parent, wantParents[s.Name])
		}
		if s.Rep != 7 {
			t.Errorf("%s belongs to repetition %d, want the root's 7", s.Name, s.Rep)
		}
		if s.End < s.Start {
			t.Errorf("%s ends at %d before it starts at %d", s.Name, s.End, s.Start)
		}
	}
	tree := NewTree(spans)
	if roots := tree.Roots(); len(roots) != 1 || roots[0].Name != "rep" {
		t.Errorf("roots = %v, want the one rep span", roots)
	}
	if got := tree.Descendants(spans[0], "engine.run"); len(got) != 1 {
		t.Errorf("found %d engine.run spans under the root, want 1", len(got))
	}
}

func TestStartRecordsNothingOutsideARoot(t *testing.T) {
	rec := NewRecorder()
	ctx, end := rec.Start(context.Background(), "workload.run", "w")
	end()
	if ctx != context.Background() || len(rec.Spans()) != 0 {
		t.Errorf("Start under a context without a span recorded %v", rec.Spans())
	}
	var none *Recorder
	_, end = none.StartRoot(context.Background(), 0, "rep", "w")
	end()
	if none.Spans() != nil {
		t.Error("a nil recorder returned spans")
	}
}

func TestAdoptCarriesTheSpanAcrossContexts(t *testing.T) {
	rec := NewRecorder()
	coordinator, endRoot := rec.StartRoot(context.Background(), 1, "cluster.coordinate", "")
	// The agent's request context shares nothing with the coordinator's.
	_, end := rec.Start(Adopt(context.Background(), coordinator), "cluster.agent", "")
	end()
	endRoot()
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Rep != 1 {
		t.Errorf("adopted span = %+v, want a child of %+v", spans[1:], spans[0])
	}
}

// span builds a test span; IDs are assigned by the caller.
func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 40),
		span(3, 1, "b", 30, 60), // overlaps a by 10
		span(4, 1, "c", 80, 90),
		span(5, 2, "a1", 10, 25),
	}
	tree := NewTree(spans)
	// Children cover [10,60) and [80,90): 60 of the root's 100.
	if got := tree.Self(spans[0]); got != 40 {
		t.Errorf("root self time = %d, want 40", got)
	}
	if got := tree.Self(spans[1]); got != 15 {
		t.Errorf("a self time = %d, want 15", got)
	}
	if got := tree.Self(spans[4]); got != 15 {
		t.Errorf("leaf self time = %d, want its duration 15", got)
	}
	if got := covered(spans[1:4], 0, 100); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	if got := covered(spans[1:4], 35, 85); got != 30 {
		t.Errorf("covered clipped to [35,85) = %d, want 30", got)
	}
}

func TestSpansAddUpToTheirRoot(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 40),
		span(3, 1, "b", 30, 60),
		span(4, 1, "c", 80, 90),
		span(5, 2, "a1", 10, 25),
	}
	tree := NewTree(spans)
	selfSum, overlap := tree.AddUp(spans[0])
	// Self times: root 40, a 15, a1 15, b 30, c 10; a and b overlap by 10.
	if selfSum != 110 || overlap != 10 {
		t.Errorf("AddUp = (%d, %d), want (110, 10)", selfSum, overlap)
	}
	if err := tree.CheckAddUp(spans[0], 0.02); err != nil {
		t.Errorf("well-formed tree does not add up: %v", err)
	}

	// A child that outlives its parent is time the parent cannot account for.
	spans[3] = span(4, 1, "c", 80, 130)
	if err := NewTree(spans).CheckAddUp(spans[0], 0.02); err == nil {
		t.Error("a child ending after its root still added up")
	}
}

func TestTraceFileRoundTrips(t *testing.T) {
	want := []Span{
		{ID: 1, Rep: 3, Name: "rep", Workload: "batch_mix", Start: 5, End: 900},
		{ID: 2, Parent: 1, Rep: 3, Name: "workload.run", Workload: "grep", Start: 10, End: 800},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, wrote %+v", got, want)
	}
	if _, err := ReadTrace(bytes.NewBufferString("{")); err == nil {
		t.Error("a truncated trace file read without error")
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) worked through
	// (q3 − q1) / median in Python.
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 12, 11, 10, 12, 13, 11.5}, 0.1276595744680851},
		{[]float64{3, 1, 2}, 1.0},
	} {
		if got := quartileSpread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}
