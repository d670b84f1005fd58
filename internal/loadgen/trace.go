package loadgen

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// Trace is a recorded arrival trace: the relative start offsets of real
// events, sorted and rebased so the first event is at zero. It is the input
// of the Replay arrival process — instead of shaping arrivals analytically
// (constant, poisson, ...), a replayed schedule inherits the burst structure
// of a production log, which is the realism argument BigDataBench makes for
// trace-driven load (arXiv:1401.1406).
type Trace struct {
	// Source names where the trace came from (a corpus name, a file).
	Source string
	// Offsets are the event offsets from the first event: sorted,
	// non-negative, Offsets[0] == 0 when non-empty.
	Offsets []time.Duration
}

// Empty reports whether the trace carries fewer than two events — too few
// to define an arrival structure.
func (t Trace) Empty() bool { return len(t.Offsets) < 2 }

// Span is the window the trace covers, from first to last event.
func (t Trace) Span() time.Duration {
	if len(t.Offsets) == 0 {
		return 0
	}
	return t.Offsets[len(t.Offsets)-1]
}

// combinedLogLayout is the bracketed timestamp format of Apache
// combined-log lines, the format the weblog corpus emits.
const combinedLogLayout = "02/Jan/2006:15:04:05 -0700"

// TraceFromLog extracts an arrival trace from combined-log-format bytes:
// every line's bracketed timestamp becomes one event. Lines without a
// parseable timestamp are skipped; the events are sorted (the weblog
// corpus's chunk time bases make raw line order non-monotonic across chunk
// boundaries) and rebased to the earliest. A log yielding fewer than two
// events is an error — there is no arrival structure to replay.
func TraceFromLog(source string, raw []byte) (Trace, error) {
	var times []time.Time
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		open := bytes.IndexByte(line, '[')
		if open < 0 {
			continue
		}
		end := bytes.IndexByte(line[open:], ']')
		if end < 0 {
			continue
		}
		ts, err := time.Parse(combinedLogLayout, string(line[open+1:open+end]))
		if err != nil {
			continue
		}
		times = append(times, ts)
	}
	if len(times) < 2 {
		return Trace{}, fmt.Errorf("loadgen: trace source %q yields %d timestamped event(s); need at least 2", source, len(times))
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	offsets := make([]time.Duration, len(times))
	for i, ts := range times {
		offsets[i] = ts.Sub(times[0])
	}
	return Trace{Source: source, Offsets: offsets}, nil
}

// replayJitter is the jitter fraction Replay applies: each arrival moves by
// up to ±10% of the mean gap, so two replays of the same trace with
// different seeds are realistic variations of each other rather than
// identical copies.
const replayJitter = 0.1

// Replay is the trace-driven arrival process: it resamples a recorded
// trace's empirical arrival distribution onto the requested (rate, window),
// preserving the trace's burst structure — dense stretches of the trace
// produce dense stretches of the schedule. A small deterministic jitter
// (seeded, like every process) keeps replays from being artifacts of the
// trace's recording granularity.
//
// The zero value has no trace and produces no arrivals; ParseProcess
// returns it for name validation only. The scenario layer injects the
// trace (see its Trace spec field) before scheduling.
type Replay struct {
	// Trace is the recorded arrival structure to resample.
	Trace Trace
}

// Name implements Process.
func (Replay) Name() string { return "replay" }

// Offsets implements Process. Arrival k of n lands at the trace's
// empirical quantile (k+½)/n — linear interpolation over the sorted trace
// offsets, rescaled from the trace's span to the window — plus jitter,
// clamped to the window. An empty trace produces no arrivals.
func (r Replay) Offsets(rate float64, d time.Duration, g *stats.RNG) []time.Duration {
	n := opCount(rate, d)
	if n <= 0 || r.Trace.Empty() {
		return nil
	}
	offs := r.Trace.Offsets
	m := len(offs)
	span := float64(r.Trace.Span())
	meanGap := float64(d) / float64(n)
	out := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		q := (float64(k) + 0.5) / float64(n)
		pos := q * float64(m-1)
		i := int(pos)
		if i >= m-1 {
			i = m - 2
		}
		frac := pos - float64(i)
		base := float64(offs[i]) + frac*float64(offs[i+1]-offs[i])
		var t float64
		if span > 0 {
			t = base / span * float64(d)
		}
		t += (g.Float64() - 0.5) * 2 * replayJitter * meanGap
		if t < 0 {
			t = 0
		}
		if t >= float64(d) {
			t = float64(d) - 1
		}
		out = append(out, time.Duration(t))
	}
	// Jitter can reorder adjacent arrivals; Process requires non-decreasing
	// offsets.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
