package loadgen

import (
	"testing"
	"time"
)

// TestScheduleDeterministic is the load generator's core guarantee: the
// same (process, rate, duration, seed) tuple yields the identical arrival
// schedule — dispatch parallelism can never perturb the offered load,
// because the schedule is fully materialized before any worker runs.
func TestScheduleDeterministic(t *testing.T) {
	for _, name := range Processes() {
		p, err := ParseProcess(name)
		if err != nil {
			t.Fatalf("ParseProcess(%q): %v", name, err)
		}
		p = withTrace(p)
		a := Schedule(p, 500, 2*time.Second, 42)
		b := Schedule(p, 500, 2*time.Second, 42)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: schedule lengths differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: offset %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
		// A different seed must change the stochastic processes' schedules.
		if name == "poisson" {
			c := Schedule(p, 500, 2*time.Second, 43)
			same := len(a) == len(c)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatalf("%s: seeds 42 and 43 produced identical schedules", name)
			}
		}
	}
}

// TestScheduleWellFormed checks every process's invariants: offsets sorted,
// inside the window, with an arrival count near rate×duration.
func TestScheduleWellFormed(t *testing.T) {
	const rate, window = 200.0, 5 * time.Second
	want := rate * window.Seconds()
	for _, name := range Processes() {
		p, _ := ParseProcess(name)
		p = withTrace(p)
		sched := Schedule(p, rate, window, 7)
		for i, off := range sched {
			if off < 0 || off >= window {
				t.Fatalf("%s: offset %d = %v outside [0, %v)", name, i, off, window)
			}
			if i > 0 && off < sched[i-1] {
				t.Fatalf("%s: offsets not sorted at %d: %v < %v", name, i, off, sched[i-1])
			}
		}
		// Poisson count varies (stddev ≈ sqrt(n) ≈ 32); allow 15% everywhere.
		if n := float64(len(sched)); n < want*0.85 || n > want*1.15 {
			t.Fatalf("%s: %d arrivals, want about %.0f", name, len(sched), want)
		}
	}
}

// TestPoissonInterArrivalMean verifies the exponential gaps have mean
// 1/rate: over 10k arrivals the sample mean must land within 5%.
func TestPoissonInterArrivalMean(t *testing.T) {
	const rate = 1000.0
	sched := Schedule(Poisson{}, rate, 10*time.Second, 99)
	if len(sched) < 5000 {
		t.Fatalf("only %d arrivals", len(sched))
	}
	var sum time.Duration
	for i := 1; i < len(sched); i++ {
		sum += sched[i] - sched[i-1]
	}
	mean := sum.Seconds() / float64(len(sched)-1)
	want := 1 / rate
	if mean < want*0.95 || mean > want*1.05 {
		t.Fatalf("poisson inter-arrival mean %.6fs, want %.6fs ±5%%", mean, want)
	}
}

// TestConstantSpacing pins the constant process to exact 1/rate gaps.
func TestConstantSpacing(t *testing.T) {
	sched := Schedule(Constant{}, 100, time.Second, 0)
	if len(sched) != 100 {
		t.Fatalf("got %d arrivals, want 100", len(sched))
	}
	for i, off := range sched {
		if want := time.Duration(i) * 10 * time.Millisecond; off != want {
			t.Fatalf("offset %d = %v, want %v", i, off, want)
		}
	}
}

// TestBurstyOnOff verifies the on/off shape: every arrival falls in the
// first (jittered) on-fraction of its cycle, and the off tail is silent.
func TestBurstyOnOff(t *testing.T) {
	sched := Schedule(Bursty{}, 100, 4*time.Second, 11)
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	// Jitter shifts each burst's start within its cycle's slack, but the
	// burst itself spans at most the on-window: within any single cycle,
	// max-min ≤ on-window.
	byCycle := map[int64][]time.Duration{}
	for _, off := range sched {
		byCycle[int64(off/time.Second)] = append(byCycle[int64(off/time.Second)], off)
	}
	for cycle, offs := range byCycle {
		span := offs[len(offs)-1] - offs[0]
		if span > 500*time.Millisecond+time.Millisecond {
			t.Fatalf("cycle %d: burst spans %v, want ≤ 500ms", cycle, span)
		}
	}
}

// TestBurstyFractionalRates is the regression test for per-cycle count
// truncation: the mean offered rate must hold for rates that are not a
// whole number per cycle, including rates below one arrival per cycle.
func TestBurstyFractionalRates(t *testing.T) {
	for _, tc := range []struct {
		rate   float64
		window time.Duration
		want   int
	}{
		{0.2, 10 * time.Second, 2},
		{2.5, 10 * time.Second, 25},
		{10.9, 10 * time.Second, 109},
	} {
		sched := Schedule(Bursty{}, tc.rate, tc.window, 5)
		if len(sched) != tc.want {
			t.Fatalf("bursty rate=%g over %v: %d arrivals, want %d",
				tc.rate, tc.window, len(sched), tc.want)
		}
	}
}

// TestRampIncreasesDensity verifies ramp arrivals concentrate late: the
// second half of the window must hold clearly more arrivals than the first.
func TestRampIncreasesDensity(t *testing.T) {
	sched := Schedule(Ramp{}, 1000, 2*time.Second, 0)
	var early, late int
	for _, off := range sched {
		if off < time.Second {
			early++
		} else {
			late++
		}
	}
	// Λ(d/2) = rate·d/4: exactly a quarter of arrivals land in the first half.
	if late <= 2*early {
		t.Fatalf("ramp not ramping: %d early vs %d late arrivals", early, late)
	}
}

// TestParseProcess covers the registry: all names, the empty-string
// default, and the error path.
func TestParseProcess(t *testing.T) {
	for _, name := range Processes() {
		p, err := ParseProcess(name)
		if err != nil {
			t.Fatalf("ParseProcess(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ParseProcess(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := ParseProcess(""); err != nil || p.Name() != "constant" {
		t.Fatalf("empty name: got %v, %v; want constant", p, err)
	}
	if _, err := ParseProcess("fractal"); err == nil {
		t.Fatal("unknown process accepted")
	}
}
