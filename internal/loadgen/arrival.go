// Package loadgen is bdbench's open-loop load generator — the velocity
// dimension of §2.1 applied to test execution rather than data generation.
// The closed-loop engine measures how fast a workload *can* go (issue,
// wait, repeat); loadgen measures how a workload behaves under a
// *controlled offered load*: an arrival Process schedules operation start
// times up front, independently of completions, and the driver records
// every latency from the operation's *intended* start time. A stalled
// operation therefore surfaces as queueing delay in the tail percentiles
// instead of silently slowing the request stream down — the classic
// coordinated-omission error that closed-loop measurement cannot avoid.
//
// It generalizes the pacing primitive the data generators already use
// (datagen.TokenBucket paces emission to one constant rate) into pluggable
// stochastic arrival processes: constant, Poisson, bursty on/off and ramp.
// Schedules are derived from the seed alone, so the same seed and rate
// produce the same arrival times at any worker count.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// Process is a pluggable arrival process: it turns an offered rate and a
// window into the intended start offsets of every operation. Offsets must
// be non-decreasing, within [0, d), and derived only from the arguments
// (including the RNG), so a schedule is reproducible from its seed.
type Process interface {
	// Name is the process's registry name ("constant", "poisson", ...).
	Name() string
	// Offsets returns the intended start offsets from the window start for a
	// mean offered rate of rate operations/second over window d.
	Offsets(rate float64, d time.Duration, g *stats.RNG) []time.Duration
}

// Constant spaces arrivals evenly at exactly 1/rate — the deterministic
// baseline every load curve starts from.
type Constant struct{}

// Name implements Process.
func (Constant) Name() string { return "constant" }

// Offsets implements Process. The RNG is unused: a constant process is
// fully determined by rate and window.
func (Constant) Offsets(rate float64, d time.Duration, _ *stats.RNG) []time.Duration {
	n := opCount(rate, d)
	gap := time.Duration(float64(time.Second) / rate)
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		off := time.Duration(i) * gap
		if off >= d {
			break
		}
		out = append(out, off)
	}
	return out
}

// Poisson draws exponential inter-arrival gaps with mean 1/rate — the
// memoryless arrival stream of independent users, and the standard model
// behind latency-under-load evaluations.
type Poisson struct{}

// Name implements Process.
func (Poisson) Name() string { return "poisson" }

// Offsets implements Process.
func (Poisson) Offsets(rate float64, d time.Duration, g *stats.RNG) []time.Duration {
	// Sized for the expected count; the stream is random, so a draw-heavy
	// schedule may still grow the slice once or twice — but never per arrival.
	out := make([]time.Duration, 0, opCount(rate, d))
	var t float64 // seconds from window start
	limit := d.Seconds()
	for {
		t += g.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// Bursty is an on/off (interrupted) arrival process: within every one-second
// cycle it offers the whole cycle's operations during the first half and
// stays silent for the rest, so the *mean* rate equals the requested rate
// while the instantaneous on-phase rate is twice that. It models periodic
// load spikes — ingest ticks, batch front-ends, thundering herds.
type Bursty struct{}

// Name implements Process.
func (Bursty) Name() string { return "bursty" }

// Offsets implements Process. Arrivals within a burst are evenly spaced;
// the RNG jitters each cycle's phase so bursts from different seeds do not
// align, without changing per-cycle counts.
func (Bursty) Offsets(rate float64, d time.Duration, g *stats.RNG) []time.Duration {
	const (
		cycle = time.Second // the on+off period
		on    = 0.5         // the fraction of it that receives arrivals
	)
	perCycle := rate * cycle.Seconds()
	out := make([]time.Duration, 0, opCount(rate, d))
	for cycleStart, c := time.Duration(0), 1; cycleStart < d; cycleStart, c = cycleStart+cycle, c+1 {
		onWindow := time.Duration(float64(cycle) * on)
		// Jitter the burst's start within the slack of its own cycle.
		slack := cycle - onWindow
		jitter := time.Duration(g.Float64() * float64(slack))
		// Emit the arrivals owed cumulatively but not yet produced, so the
		// fractional part of perCycle carries across cycles and the mean
		// rate holds for any rate — including rates below one per cycle.
		n := int(perCycle*float64(c)) - int(perCycle*float64(c-1))
		if n == 0 {
			continue
		}
		gap := onWindow / time.Duration(n)
		for i := 0; i < n; i++ {
			off := cycleStart + jitter + time.Duration(i)*gap
			if off >= d {
				break
			}
			out = append(out, off)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ramp increases the instantaneous rate linearly from zero to 2×rate over
// the window, so the mean offered rate equals the requested rate. It finds
// the knee of a system's latency curve in a single run: early arrivals are
// sparse, late arrivals oversubscribe.
type Ramp struct{}

// Name implements Process.
func (Ramp) Name() string { return "ramp" }

// Offsets implements Process. With instantaneous rate r(t) = 2·rate·t/d the
// cumulative arrival count is Λ(t) = rate·t²/d, so the k-th arrival lands at
// t = sqrt(k·d/rate) — no RNG needed.
func (Ramp) Offsets(rate float64, d time.Duration, _ *stats.RNG) []time.Duration {
	n := opCount(rate, d)
	limit := d.Seconds()
	out := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		t := math.Sqrt(float64(k) * limit / rate)
		if t >= limit {
			break
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// opCount is the expected number of arrivals for a mean rate over a
// window, rounded so float representation error (10/s over 300ms is not
// exactly 3.0) cannot drop the last scheduled arrival; the callers' own
// `off >= d` guard bounds any overshoot.
func opCount(rate float64, d time.Duration) int {
	return int(math.Round(rate * d.Seconds()))
}

// Processes returns the built-in arrival process names, in presentation
// order.
func Processes() []string {
	return []string{"constant", "poisson", "bursty", "ramp", "replay"}
}

// ParseProcess resolves an arrival process by name. The empty string is the
// constant process, so specs may omit the field. "replay" resolves to a
// Replay with no trace — callers that schedule it must inject one (the
// scenario layer resolves the trace corpus); without a trace it produces no
// arrivals rather than silently falling back to an analytic process.
func ParseProcess(name string) (Process, error) {
	switch name {
	case "", "constant":
		return Constant{}, nil
	case "poisson":
		return Poisson{}, nil
	case "bursty":
		return Bursty{}, nil
	case "ramp":
		return Ramp{}, nil
	case "replay":
		return Replay{}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q (have: %s)",
			name, strings.Join(Processes(), ", "))
	}
}

// Schedule materializes the process's arrival times for one run: intended
// start offsets from the window start, derived from the seed alone. The
// same (process, rate, duration, seed) tuple yields the identical schedule
// regardless of how many workers later execute it — scheduling is separated
// from dispatch precisely so parallelism cannot perturb the offered load.
func Schedule(p Process, rate float64, d time.Duration, seed uint64) []time.Duration {
	if p == nil {
		p = Constant{}
	}
	if rate <= 0 || d <= 0 {
		return nil
	}
	g := stats.NewRNG(seed).Split("loadgen/"+p.Name(), 0)
	return p.Offsets(rate, d, g)
}
