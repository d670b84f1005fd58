package streamgen

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	gen := Generator{EventsPerSec: 1000, KeySpace: 50}
	events := gen.Generate(stats.NewRNG(1), 500)
	if len(events) != 500 {
		t.Fatalf("events %d, want 500", len(events))
	}
	var last time.Duration = -1
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("seq %d at index %d", ev.Seq, i)
		}
		if ev.Offset <= last {
			t.Fatalf("offsets must strictly increase: %v after %v", ev.Offset, last)
		}
		last = ev.Offset
		if len(ev.Value) != 64 {
			t.Fatalf("value len %d", len(ev.Value))
		}
		if ev.Key == "" {
			t.Fatal("empty key")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := Generator{EventsPerSec: 1000, Arrival: ArrivalPoisson}
	a := gen.Generate(stats.NewRNG(2), 100)
	b := gen.Generate(stats.NewRNG(2), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestGenerateParallelAllocsPerChunk holds GenerateParallel's allocations to
// its chunk count: from one chunk to eight they may grow by a small constant
// per added chunk, never by one or more per event.
func TestGenerateParallelAllocsPerChunk(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	gen := Generator{EventsPerSec: 50000, Arrival: ArrivalPoisson, KeySpace: 100, KeyChooser: stats.Zipf{Count: 100, S: 1.2}}
	allocs := func(n int64) float64 {
		// Truncation hides under one allocation a call; a per-event one adds 7·chunkEvents between the volumes.
		return testing.AllocsPerRun(5, func() { gen.GenerateParallel(7, n, 2) })
	}
	const perChunk = 16
	if small, large := allocs(chunkEvents), allocs(8*chunkEvents); large-small > 7*perChunk {
		t.Errorf("allocations grow from %.0f at one chunk to %.0f at eight, want at most %d more per added chunk",
			small, large, perChunk)
	}
}

func TestVirtualRateMatchesTarget(t *testing.T) {
	for _, arrival := range []Arrival{ArrivalConstant, ArrivalPoisson} {
		gen := Generator{EventsPerSec: 2000, Arrival: arrival}
		events := gen.Generate(stats.NewRNG(3), 20000)
		span := events[len(events)-1].Offset.Seconds()
		rate := float64(len(events)) / span
		if math.Abs(rate-2000)/2000 > 0.15 {
			t.Fatalf("%v virtual rate %.0f, want ~2000", arrival, rate)
		}
	}
}

func TestMixFractions(t *testing.T) {
	gen := Generator{
		EventsPerSec: 1000,
		Mix:          Mix{UpdateFraction: 0.3, DeleteFraction: 0.1},
	}
	events := gen.Generate(stats.NewRNG(5), 50000)
	counts := map[OpKind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	frac := func(k OpKind) float64 { return float64(counts[k]) / float64(len(events)) }
	if math.Abs(frac(OpUpdate)-0.3) > 0.02 {
		t.Fatalf("update fraction %.3f, want 0.30", frac(OpUpdate))
	}
	if math.Abs(frac(OpDelete)-0.1) > 0.02 {
		t.Fatalf("delete fraction %.3f, want 0.10", frac(OpDelete))
	}
	if math.Abs(frac(OpInsert)-0.6) > 0.02 {
		t.Fatalf("insert fraction %.3f, want 0.60", frac(OpInsert))
	}
}

func TestKeySkew(t *testing.T) {
	gen := Generator{
		EventsPerSec: 1000,
		KeySpace:     1000,
		KeyChooser:   stats.Zipf{Count: 1000, S: 1.3},
	}
	events := gen.Generate(stats.NewRNG(6), 20000)
	ft := stats.NewFreqTable()
	for _, ev := range events {
		ft.Observe(ev.Key)
	}
	top := ft.TopK(1)
	if ft.Counts[top[0]] < 1000 {
		t.Fatalf("top key count %d, want heavy skew", ft.Counts[top[0]])
	}
}

// TestRunPacesToRate holds what Table 1's velocity probe relies on: every
// event arrives, the achieved rate follows the target, and four times the
// target gives about four times the rate (the probe's 2.5–6.5 window).
func TestRunPacesToRate(t *testing.T) {
	run := func(target float64, n int64) float64 {
		out := make(chan Event)
		done := make(chan float64)
		go func() {
			rate, err := Generator{EventsPerSec: target}.Run(context.Background(), stats.NewRNG(7), n, out)
			if err != nil {
				t.Errorf("run: %v", err)
			}
			done <- rate
		}()
		count := int64(0)
		for range out {
			count++
		}
		if count != n {
			t.Fatalf("received %d events, want %d", count, n)
		}
		return <-done
	}
	low, high := run(5000, 1200), run(20000, 4800)
	// 1200 events at 5000/sec ≈ 0.24s; pacing granularity and scheduling
	// allow slack.
	if low < 2500 || low > 12000 {
		t.Fatalf("achieved rate %.0f, want ~5000", low)
	}
	if ratio := high / low; ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("20000/s over 5000/s achieved %.0f over %.0f = %.2f, want ~4", high, low, ratio)
	}
}

func TestRunCancellation(t *testing.T) {
	gen := Generator{EventsPerSec: 10} // slow, so cancellation hits mid-run
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan Event) // unbuffered: generator blocks on send
	errCh := make(chan error)
	go func() {
		_, err := gen.Run(ctx, stats.NewRNG(8), 1000, out)
		errCh <- err
	}()
	<-out // accept one event
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("cancelled run returned %v, want ctx.Err()", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if _, open := <-out; open {
		t.Fatal("cancelled run left its channel open")
	}
}

// TestRunCancelInterruptsPacing: at 2 events/s the second event is due
// 500 ms in; a cancel 50 ms in returns within 50 ms, because the pacing
// sleep is the context-aware one.
func TestRunCancelInterruptsPacing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan Event)
	errCh := make(chan error)
	go func() {
		_, err := Generator{EventsPerSec: 2}.Run(ctx, stats.NewRNG(8), 10, out)
		errCh <- err
	}()
	<-out
	time.Sleep(50 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want ctx.Err()", err)
	}
	if late := time.Since(cancelled); late > 50*time.Millisecond {
		t.Fatalf("run returned %v after its cancel, want within 50ms", late)
	}
}

func TestRunUnpaced(t *testing.T) {
	gen := Generator{} // EventsPerSec 0 = max speed
	out := make(chan Event, 10000)
	if _, err := gen.Run(context.Background(), stats.NewRNG(9), 10000, out); err != nil {
		t.Fatal(err)
	}
	count := 0
	for range out {
		count++
	}
	if count != 10000 {
		t.Fatalf("received %d", count)
	}
}

func TestMeasureProcessingSpeed(t *testing.T) {
	gen := Generator{EventsPerSec: 1000}
	events := gen.Generate(stats.NewRNG(10), 5000)
	n := 0
	rate := MeasureProcessingSpeed(events, func(Event) { n++ })
	if n != 5000 {
		t.Fatalf("processed %d", n)
	}
	if rate <= 0 {
		t.Fatalf("rate %.0f", rate)
	}
	if MeasureProcessingSpeed(nil, func(Event) {}) != 0 {
		t.Fatal("empty stream should report 0")
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpInsert.String() != "insert" || OpUpdate.String() != "update" || OpDelete.String() != "delete" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown OpKind empty")
	}
}
