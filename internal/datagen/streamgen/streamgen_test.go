package streamgen

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	gen := Generator{EventsPerSec: 1000, KeySpace: 50, ValueLen: 8}
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
		if len(ev.Value) != 8 {
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

func TestVirtualRateMatchesTarget(t *testing.T) {
	for _, arrival := range []Arrival{ArrivalConstant, ArrivalPoisson, ArrivalBursty} {
		gen := Generator{EventsPerSec: 2000, Arrival: arrival}
		events := gen.Generate(stats.NewRNG(3), 20000)
		span := events[len(events)-1].Offset.Seconds()
		rate := float64(len(events)) / span
		if math.Abs(rate-2000)/2000 > 0.15 {
			t.Fatalf("%v virtual rate %.0f, want ~2000", arrival, rate)
		}
	}
}

func TestBurstyHasBurstStructure(t *testing.T) {
	gen := Generator{EventsPerSec: 1000, Arrival: ArrivalBursty}
	events := gen.Generate(stats.NewRNG(4), 10000)
	// Gaps should be bimodal: some much shorter than the mean, some longer.
	mean := 1.0 / 1000
	short, long := 0, 0
	for i := 1; i < len(events); i++ {
		gap := (events[i].Offset - events[i-1].Offset).Seconds()
		if gap < mean*0.5 {
			short++
		}
		if gap > mean*1.1 {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("bursty arrivals not bimodal: short=%d long=%d", short, long)
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
