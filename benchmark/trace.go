package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program under test, recorded
// by the benchmark from outside that layer. Start and End are nanosecond
// offsets from the recorder's origin; Parent is the ID of the span that
// caused this one (0 for a root); Rep is shared by every span of one
// repetition, so one unit of work can be followed across layers.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the benchmark ends. A nil Recorder
// records nothing, which is how the untraced pass runs the same code.
type Recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder whose offsets count from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

type spanKey struct{}

// spanRef is the span a context is running under.
type spanRef struct{ id, rep int }

// Start opens a span under the span carried by ctx and returns a context
// carrying the new span plus the function that closes it. On a nil recorder,
// or when ctx carries no span, both are no-ops: code on an untraced path
// calls Start exactly as code on a traced one does, and only StartRoot
// decides which is which.
func (r *Recorder) Start(ctx context.Context, name, workload string) (context.Context, func()) {
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if r == nil || !ok {
		return ctx, func() {}
	}
	return r.startUnder(ctx, parent, name, workload)
}

// StartRoot opens a parentless span that begins repetition rep.
func (r *Recorder) StartRoot(ctx context.Context, rep int, name, workload string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	return r.startUnder(ctx, spanRef{rep: rep}, name, workload)
}

func (r *Recorder) startUnder(ctx context.Context, parent spanRef, name, workload string) (context.Context, func()) {
	start := int64(time.Since(r.origin))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent.id, Rep: parent.rep, Name: name, Workload: workload, Start: start, End: start})
	r.mu.Unlock()
	end := func() {
		now := int64(time.Since(r.origin))
		r.mu.Lock()
		r.spans[id-1].End = now
		r.mu.Unlock()
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, rep: parent.rep}), end
}

// Adopt returns ctx carrying the same span as from. An agent's request
// context does not descend from the coordinator's, so the HTTP middleware
// uses this to hang the handler's span under the Coordinate call.
func Adopt(ctx, from context.Context) context.Context {
	if ref, ok := from.Value(spanKey{}).(spanRef); ok {
		return context.WithValue(ctx, spanKey{}, ref)
	}
	return ctx
}

// Spans returns a copy of everything recorded so far, in start order.
func (r *Recorder) Spans() []Span {
	return r.spansWhere(func(Span) bool { return true })
}

// SpansOf returns a copy of repetition rep's spans, in start order.
func (r *Recorder) SpansOf(rep int) []Span {
	return r.spansWhere(func(s Span) bool { return s.Rep == rep })
}

func (r *Recorder) spansWhere(keep func(Span) bool) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// Tree indexes a span set by parent for self-time and add-up queries.
type Tree struct {
	children map[int][]Span
}

// NewTree indexes spans.
func NewTree(spans []Span) *Tree {
	t := &Tree{children: make(map[int][]Span)}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// Roots returns the parentless spans.
func (t *Tree) Roots() []Span { return t.children[0] }

// Children returns the spans whose parent is id.
func (t *Tree) Children(id int) []Span { return t.children[id] }

// covered returns how much of [lo, hi) the spans cover: the length of the
// union of their intervals clipped to that window, so overlapping spans
// (two agents serving shards at once) are counted once.
func covered(spans []Span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// Self is the span's self time: its duration minus the part of its
// interval its children cover.
func (t *Tree) Self(s Span) int64 {
	return s.Dur() - covered(t.children[s.ID], s.Start, s.End)
}

// AddUp walks the subtree under root and returns the sum of every span's
// self time and the overlap: the time by which sibling spans ran
// concurrently inside their parent (the sum of their durations, each clipped
// to the parent's interval, minus the union). With every child inside its
// parent, selfSum − overlap equals the root's duration exactly. Whatever
// part of a child lies outside its parent — it started early, ended late,
// or hangs under the wrong span — is time the parent cannot account for,
// and breaks the equality by that much.
func (t *Tree) AddUp(root Span) (selfSum, overlap int64) {
	var walk func(Span)
	walk = func(s Span) {
		selfSum += t.Self(s)
		var inside int64
		for _, c := range t.children[s.ID] {
			inside += max(0, min(c.End, s.End)-max(c.Start, s.Start))
			walk(c)
		}
		overlap += inside - covered(t.children[s.ID], s.Start, s.End)
	}
	walk(root)
	return selfSum, overlap
}

// CheckAddUp reports an error when the spans under root do not add up to
// its duration within tol (a fraction of the root's duration).
func (t *Tree) CheckAddUp(root Span, tol float64) error {
	selfSum, overlap := t.AddUp(root)
	got, want := selfSum-overlap, root.Dur()
	if diff := float64(got - want); diff > tol*float64(want) || -diff > tol*float64(want) {
		return fmt.Errorf("spans under %q (rep %d) add up to %d ns, root lasted %d ns", root.Name, root.Rep, got, want)
	}
	return nil
}

// Descendants returns every span under root with the given name.
func (t *Tree) Descendants(root Span, name string) []Span {
	var out []Span
	var walk func(int)
	walk = func(id int) {
		for _, c := range t.children[id] {
			if c.Name == name {
				out = append(out, c)
			}
			walk(c.ID)
		}
	}
	walk(root.ID)
	return out
}

// traceFile is the on-disk form of a recorder.
type traceFile struct {
	Unit  string `json:"unit"`
	Spans []Span `json:"spans"`
}

// WriteTrace writes the spans as JSON.
func WriteTrace(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{Unit: "ns", Spans: spans})
}

// ReadTrace reads what WriteTrace wrote.
func ReadTrace(r io.Reader) ([]Span, error) {
	var f traceFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	return f.Spans, nil
}
