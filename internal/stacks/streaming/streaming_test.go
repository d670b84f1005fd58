package streaming

import (
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/stats"
)

func eventsAt(keys []string, times []time.Duration) []streamgen.Event {
	out := make([]streamgen.Event, len(keys))
	for i := range keys {
		out[i] = streamgen.Event{Seq: int64(i), Key: keys[i], Offset: times[i]}
	}
	return out
}

func TestMapStage(t *testing.T) {
	e := New(16)
	events := eventsAt(
		[]string{"a", "b", "a", "c"},
		[]time.Duration{1, 2, 3, 4},
	)
	res := e.Run(events,
		MapStage{Label: "x10", Fn: func(m Msg) Msg { m.Value *= 10; return m }},
	)
	if len(res.Out) != 4 {
		t.Fatalf("out %d, want 4", len(res.Out))
	}
	for _, m := range res.Out {
		if m.Value != 10 {
			t.Fatalf("msg %+v", m)
		}
	}
	if res.In != 4 || res.Processed != 4 {
		t.Fatalf("counts %+v", res)
	}
}

func TestTumblingWindowCounts(t *testing.T) {
	e := New(16)
	// Window size 10: [0,10) has a,a,b; [10,20) has b; [20,30) has c.
	events := eventsAt(
		[]string{"a", "a", "b", "b", "c"},
		[]time.Duration{1, 5, 9, 12, 25},
	)
	res := e.Run(events, TumblingWindow{Size: 10})
	got := map[string][]float64{}
	for _, m := range res.Out {
		got[m.Key] = append(got[m.Key], m.Value)
	}
	if len(got["a"]) != 1 || got["a"][0] != 2 {
		t.Fatalf("a windows %v", got["a"])
	}
	if len(got["b"]) != 2 || got["b"][0] != 1 || got["b"][1] != 1 {
		t.Fatalf("b windows %v", got["b"])
	}
	if len(got["c"]) != 1 || got["c"][0] != 1 {
		t.Fatalf("c windows %v", got["c"])
	}
}

func TestTumblingWindowSum(t *testing.T) {
	e := New(4)
	events := eventsAt([]string{"k", "k"}, []time.Duration{1, 2})
	res := e.Run(events,
		MapStage{Label: "v5", Fn: func(m Msg) Msg { m.Value = 5; return m }},
		TumblingWindow{Size: 10, Agg: AggSum},
	)
	if len(res.Out) != 1 || res.Out[0].Value != 10 {
		t.Fatalf("sum window %v", res.Out)
	}
}

func TestTumblingWindowSkipsEmptyWindows(t *testing.T) {
	e := New(4)
	// Events in window 0 and window 5; windows 1-4 are empty and must not
	// emit.
	events := eventsAt([]string{"k", "k"}, []time.Duration{1, 51})
	res := e.Run(events, TumblingWindow{Size: 10})
	if len(res.Out) != 2 {
		t.Fatalf("out %v", res.Out)
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	e := New(16)
	// Size 20, slide 10. Events at t=5 (k) and t=15 (k).
	// Slide boundary 10: window covers (last 20) -> k:1.
	// Stream-end flush at boundary 20: window covers [0,20) -> k:2,
	// demonstrating that the t=5 event is counted by two overlapping
	// windows.
	events := eventsAt([]string{"k", "k"}, []time.Duration{5, 15})
	res := e.Run(events, SlidingWindow{Size: 20, Slide: 10})
	if len(res.Out) != 2 {
		t.Fatalf("emissions %v", res.Out)
	}
	if res.Out[0].Value != 1 || res.Out[1].Value != 2 {
		t.Fatalf("values %v", res.Out)
	}
}

func TestPipelineWithGeneratedStream(t *testing.T) {
	gen := streamgen.Generator{EventsPerSec: 10000, KeySpace: 20}
	events := gen.Generate(stats.NewRNG(1), 5000)
	e := New(256)
	res := e.Run(events, TumblingWindow{Size: 100 * time.Millisecond})
	if res.Rate <= 0 {
		t.Fatal("no rate measured")
	}
	// Total counted across windows must equal the event count.
	total := 0.0
	for _, m := range res.Out {
		total += m.Value
	}
	if int(total) != 5000 {
		t.Fatalf("window counts total %v, want 5000", total)
	}
}

func TestBackpressureSmallBuffer(t *testing.T) {
	// A buffer of 1 forces lock-step handoff but must not deadlock.
	gen := streamgen.Generator{EventsPerSec: 0, KeySpace: 5}
	events := gen.Generate(stats.NewRNG(2), 1000)
	e := New(1)
	res := e.Run(events,
		MapStage{Label: "id", Fn: func(m Msg) Msg { return m }},
		TumblingWindow{Size: time.Second},
	)
	total := 0.0
	for _, m := range res.Out {
		total += m.Value
	}
	if int(total) != 1000 {
		t.Fatalf("total %v", total)
	}
}

func TestWindowDefaults(t *testing.T) {
	e := New(0) // clamps buffer to 1
	events := eventsAt([]string{"k"}, []time.Duration{time.Millisecond})
	res := e.Run(events, TumblingWindow{}) // size defaults to 1s
	if len(res.Out) != 1 {
		t.Fatalf("out %v", res.Out)
	}
	res = e.Run(events, SlidingWindow{}) // slide defaults to 1s
	if len(res.Out) != 1 {
		t.Fatalf("sliding out %v", res.Out)
	}
}

func TestStageNames(t *testing.T) {
	stages := []Stage{
		MapStage{Label: "m"},
		TumblingWindow{},
		SlidingWindow{},
	}
	for _, s := range stages {
		if s.Name() == "" {
			t.Fatalf("%T empty name", s)
		}
	}
}
