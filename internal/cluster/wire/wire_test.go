package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/runstore"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{Protocol: ProtocolVersion, Tool: "bdbench", ToolVersion: "test", SpecDigest: "abc", Seed: 42}
	accept := Accept{Protocol: ProtocolVersion, ToolVersion: "test", Tasks: 3}
	if err := WriteFrame(&buf, TypeHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, TypeAccept, accept); err != nil {
		t.Fatal(err)
	}

	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeHello {
		t.Fatalf("type %s, want hello", f.Type)
	}
	var gotHello Hello
	if err := f.Decode(&gotHello); err != nil {
		t.Fatal(err)
	}
	if gotHello != hello {
		t.Fatalf("hello %+v, want %+v", gotHello, hello)
	}
	f, err = ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var gotAccept Accept
	if err := f.Decode(&gotAccept); err != nil {
		t.Fatal(err)
	}
	if gotAccept != accept {
		t.Fatalf("accept %+v, want %+v", gotAccept, accept)
	}
	// The stream is drained: the next read is a clean EOF, not an error.
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestEventRoundTrip(t *testing.T) {
	in := engine.Event{
		Kind:     engine.EventRepDone,
		Workload: "w",
		Task:     3,
		Rep:      1,
		Warmup:   false,
		Err:      errors.New("boom"),
		Elapsed:  250 * time.Millisecond,
	}
	out := FromEvent(in).ToEvent()
	if out.Kind != in.Kind || out.Workload != in.Workload || out.Task != in.Task ||
		out.Rep != in.Rep || out.Warmup != in.Warmup || out.Elapsed != in.Elapsed {
		t.Fatalf("round trip %+v, want %+v", out, in)
	}
	if out.Err == nil || out.Err.Error() != "boom" {
		t.Fatalf("err %v, want boom (as opaque message)", out.Err)
	}
}

// sampledResult is a metrics.Result with one captured stream whose offsets
// and values are unique per (seed, i), so a frame can be searched for them.
func sampledResult(name string, throughput float64, seed int64, n int) metrics.Result {
	s := metrics.OpSamples{Op: "read", Dropped: 1}
	for i := int64(0); i < int64(n); i++ {
		s.Offsets = append(s.Offsets, seed*1_000_000+i)
		s.Values = append(s.Values, seed*1_000_000+500_000+i)
	}
	return metrics.Result{
		Name:       name,
		Elapsed:    time.Second,
		Throughput: throughput,
		Counters:   map[string]int64{"records": 60},
		Samples:    []metrics.OpSamples{s},
	}
}

// equalErr compares errors by message: identity does not survive the wire.
func equalErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestTaskResultRoundTrip: a result frame carries only the repetitions (and
// the load statistics), and the receiving side re-derives median, best,
// throughput and error with the engine's own fold — so the round trip
// reproduces what the engine produced, whatever mix of repetitions failed.
func TestTaskResultRoundTrip(t *testing.T) {
	load := &loadgen.Stats{
		Arrival: "poisson", Offered: 200, Window: time.Second, Elapsed: time.Second,
		Scheduled: 200, Dispatched: 200, Achieved: 200,
		Latency: loadgen.LatencySummary{Count: 200, Mean: time.Millisecond, P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 4 * time.Millisecond},
	}
	cases := []struct {
		name string
		reps []engine.Rep
		load *loadgen.Stats
	}{
		{"closed-loop-one-failed-rep", []engine.Rep{
			{Result: sampledResult("det-a", 120, 1, 2)},
			{Result: sampledResult("det-a", 90, 2, 2), Err: errors.New("rep 1 failed")},
			{Result: sampledResult("det-a", 130, 3, 2)},
		}, nil},
		{"closed-loop-all-failed", []engine.Rep{
			{Result: sampledResult("det-a", 0, 1, 1), Err: errors.New("rep 0 failed")},
			{Result: sampledResult("det-a", 0, 2, 1), Err: errors.New("rep 1 failed")},
			{Result: sampledResult("det-a", 0, 3, 1), Err: errors.New("rep 2 failed")},
		}, nil},
		{"open-loop-window", []engine.Rep{{Result: sampledResult("det-a", 200, 1, 3)}}, load},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := engine.Summarize("det-a", "offline analytics", tc.reps, tc.load)
			w := FromTaskResult(7, in)
			if w.Task != 7 {
				t.Fatalf("shard-local task %d, want 7", w.Task)
			}
			// Samples travel as series, not inside the Result JSON.
			if w.Reps[0].Result.Samples != nil {
				t.Fatal("wire rep still carries raw samples inline")
			}
			frame, err := EncodeFrame(TypeResult, w)
			if err != nil {
				t.Fatal(err)
			}
			f, _, err := DecodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			var back Result
			if err := f.Decode(&back); err != nil {
				t.Fatal(err)
			}
			out := back.ToTaskResult()

			if !equalErr(out.Err, in.Err) {
				t.Fatalf("err %v, want %v", out.Err, in.Err)
			}
			if len(out.Reps) != len(in.Reps) {
				t.Fatalf("%d reps, want %d", len(out.Reps), len(in.Reps))
			}
			for i := range in.Reps {
				if !equalErr(out.Reps[i].Err, in.Reps[i].Err) {
					t.Fatalf("rep %d err %v, want %v", i, out.Reps[i].Err, in.Reps[i].Err)
				}
				out.Reps[i].Err = in.Reps[i].Err
			}
			out.Err = in.Err
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("round trip\n got %+v\nwant %+v", out, in)
			}
		})
	}
}

// TestResultFrameCarriesEachSampleOnce: a reps=1 result used to cross the
// wire as reps[0], median and best — three JSON copies of every captured
// sample, of which the coordinator used one.
func TestResultFrameCarriesEachSampleOnce(t *testing.T) {
	const n = 50
	res := sampledResult("det-a", 100, 7, n)
	frame, err := EncodeFrame(TypeResult, FromTaskResult(0,
		engine.Summarize("det-a", "offline analytics", []engine.Rep{{Result: res}}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Samples[0]
	for i := 0; i < n; i++ {
		pair := fmt.Sprintf(`{"Offset":%d,"Value":%d}`, s.Offsets[i], s.Values[i])
		if got := bytes.Count(frame, []byte(pair)); got != 1 {
			t.Fatalf("sample %s appears %d times in the frame, want once", pair, got)
		}
	}
}

func TestSeriesConversionRoundTrip(t *testing.T) {
	in := []metrics.OpSamples{
		{Op: "read", Offsets: []int64{5, 6}, Values: []int64{50, 60}},
		{Op: "shuffle", Substrate: true, Offsets: []int64{7}, Values: []int64{70}, Dropped: 3},
	}
	series := runstore.SeriesOf("w", in)
	if len(series) != 2 || series[0].Workload != "w" || !series[1].Substrate {
		t.Fatalf("series %+v", series)
	}
	if got := SamplesOf(series); !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip %+v, want %+v", got, in)
	}
	if runstore.SeriesOf("w", nil) != nil || SamplesOf(nil) != nil {
		t.Fatal("empty conversions must stay nil")
	}
}

// corruptFrames is the shared corrupt-input table: every entry must fail
// cleanly in both DecodeFrame and ReadFrame — never panic, never allocate
// a lying length.
func corruptFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	good, err := EncodeFrame(TypeAccept, Accept{Protocol: ProtocolVersion, Tasks: 2})
	if err != nil {
		tb.Fatal(err)
	}
	lyingLong := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(lyingLong, uint32(len(good))) // claims more than remains
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, MaxFrameSize+1)
	zero := make([]byte, 8)
	notJSON := make([]byte, 4+7)
	binary.BigEndian.PutUint32(notJSON, 7)
	copy(notJSON[4:], "not-js!")
	noType := make([]byte, 4)
	body := []byte(`{"body":{}}`)
	binary.BigEndian.PutUint32(noType, uint32(len(body)))
	noType = append(noType, body...)
	return map[string][]byte{
		"empty":            {},
		"short-prefix":     {0, 0, 1},
		"zero-length":      zero,
		"length-above-cap": huge,
		"lying-length":     lyingLong,
		"truncated-body":   good[:len(good)-3],
		"not-json":         notJSON,
		"no-type":          noType,
	}
}

func TestDecodeFrameCorrupt(t *testing.T) {
	for name, raw := range corruptFrames(t) {
		t.Run(name, func(t *testing.T) {
			if f, n, err := DecodeFrame(raw); err == nil {
				t.Fatalf("corrupt input decoded: frame=%+v consumed=%d", f, n)
			}
		})
	}
}

func TestReadFrameCorrupt(t *testing.T) {
	for name, raw := range corruptFrames(t) {
		t.Run(name, func(t *testing.T) {
			f, err := ReadFrame(bytes.NewReader(raw))
			if len(raw) == 0 {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("empty stream: %v, want clean io.EOF", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupt stream read: %+v", f)
			}
			if errors.Is(err, io.EOF) && !strings.Contains(err.Error(), "wire:") {
				t.Fatalf("mid-frame corruption reported as clean EOF: %v", err)
			}
		})
	}
}

func TestDecodeFrameConsumesExactly(t *testing.T) {
	a, err := EncodeFrame(TypeSnapshot, Snapshot{Done: 1, Tasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeFrame(TypeError, Error{Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), a...), b...)
	f, n, err := DecodeFrame(stream)
	if err != nil || f.Type != TypeSnapshot || n != len(a) {
		t.Fatalf("first decode: %+v n=%d err=%v", f, n, err)
	}
	f, n, err = DecodeFrame(stream[n:])
	if err != nil || f.Type != TypeError || n != len(b) {
		t.Fatalf("second decode: %+v n=%d err=%v", f, n, err)
	}
}

func TestEncodeFrameRejectsOversize(t *testing.T) {
	if _, err := EncodeFrame(TypeEvent, strings.Repeat("x", MaxFrameSize)); err == nil {
		t.Fatal("oversize frame encoded")
	}
}

// FuzzDecodeFrame holds the defensive-framing line: arbitrary bytes must
// decode to (frame, consumed, nil) or an error — never a panic, and never
// a consumed count outside the buffer. Valid decodes must re-encode.
func FuzzDecodeFrame(f *testing.F) {
	good, err := EncodeFrame(TypeHello, Hello{Protocol: ProtocolVersion, SpecDigest: "d"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	for _, raw := range corruptFrames(f) {
		f.Add(raw)
	}
	// The protocol-2 result frame: repetitions and their series, no
	// median/best copies.
	result, err := EncodeFrame(TypeResult, FromTaskResult(0,
		engine.Summarize("det-a", "offline analytics", []engine.Rep{{Result: sampledResult("det-a", 100, 1, 2)}}, nil)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(result)
	f.Fuzz(func(t *testing.T, raw []byte) {
		frame, n, err := DecodeFrame(raw)
		if err != nil {
			return
		}
		if n < 4 || n > len(raw) {
			t.Fatalf("consumed %d of %d bytes", n, len(raw))
		}
		if frame.Type == "" {
			t.Fatal("decoded frame has no type")
		}
		if _, err := EncodeFrame(frame.Type, frame.Body); err != nil {
			t.Fatalf("valid frame failed to re-encode: %v", err)
		}
	})
}
