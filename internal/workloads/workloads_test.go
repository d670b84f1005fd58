package workloads

import (
	"context"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks"
)

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Scale != 1 || p.Workers != 4 {
		t.Fatalf("defaults %+v", p)
	}
	p = Params{Scale: 3, Workers: 2, Seed: 9}.WithDefaults()
	if p.Scale != 3 || p.Workers != 2 || p.Seed != 9 {
		t.Fatalf("explicit values clobbered: %+v", p)
	}
}

func TestCategoryValues(t *testing.T) {
	for _, c := range []Category{Online, Offline, Realtime} {
		if c == "" {
			t.Fatal("empty category constant")
		}
	}
}

// TestNewRunAllocatesNothing: the entry New's Run puts before a workload's
// body (defaults, the done-context check) allocates exactly nothing. The
// loop of calls is measured as one run, so a fraction of an allocation per
// call fails the test too.
func TestNewRunAllocatesNothing(t *testing.T) {
	const runs = 1000
	w := New("noop", Online, "test", func(context.Context, Params, *metrics.Collector) error { return nil },
		stacks.TypeMapReduce)
	c := metrics.NewCollector("noop")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1, func() {
		for range runs {
			if err := w.Run(ctx, Params{}, c); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.4f)", allocs)
	}
	if allocs != 0 {
		t.Errorf("Run through New: %.4f allocs/op, want 0", allocs)
	}
}

// TestNewOwnsTheEntry: the body New wraps sees defaulted Params, and is not
// called at all on a done context.
func TestNewOwnsTheEntry(t *testing.T) {
	var got []Params
	w := New("probe", Offline, "test", func(_ context.Context, p Params, _ *metrics.Collector) error {
		got = append(got, p)
		return nil
	})
	c := metrics.NewCollector("probe")
	if err := w.Run(context.Background(), Params{Seed: 5}, c); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Run(ctx, Params{}, c); err != context.Canceled {
		t.Fatalf("done context: err = %v, want context.Canceled", err)
	}
	if want := (Params{Seed: 5}).WithDefaults(); len(got) != 1 || got[0] != want {
		t.Fatalf("body saw %+v, want one call with %+v", got, want)
	}
	if w.Name() != "probe" || w.Category() != Offline || w.Domain() != "test" || len(w.StackTypes()) != 0 {
		t.Fatalf("metadata %q %q %q %v", w.Name(), w.Category(), w.Domain(), w.StackTypes())
	}
}
