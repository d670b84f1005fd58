package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
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
// and values are unique per (seed, i).
func sampledResult(name string, throughput float64, seed int64, n int) metrics.Result {
	s := metrics.OpSamples{Op: "read", Dropped: 1}
	for i := int64(0); i < int64(n); i++ {
		s.Samples = append(s.Samples, metrics.Sample{Offset: seed*1_000_000 + i, Value: seed*1_000_000 + 500_000 + i})
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

// TestResultFrameCarriesTheBlobEncoding pins what a sample costs on the
// wire: a result frame of 10 000 paced samples is at most 1.5× the runstore
// blob of the same series (base64 is 4/3) over the frame without them. The
// streams cross once, columnar: neither as JSON pairs (protocol 3, about
// nine times the blob) nor with median and best copies (protocol 1). The
// frame decodes back to exactly those samples.
func TestResultFrameCarriesTheBlobEncoding(t *testing.T) {
	const n = 10_000
	res := sampledResult("det-a", 100, 7, 0)
	s := &res.Samples[0]
	for i := int64(0); i < n; i++ {
		// Every 5 µs with up to 200 ns of jitter, latencies of 200–250 µs.
		s.Samples = append(s.Samples, metrics.Sample{Offset: i*5000 + i*7919%200, Value: 200_000 + i*104729%50_000})
	}
	frameOf := func(r metrics.Result) []byte {
		frame, err := EncodeFrame(TypeResult, FromTaskResult(0,
			engine.Summarize("det-a", "offline analytics", []engine.Rep{{Result: r}}, nil)))
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	frame := frameOf(res)
	bare := res
	bare.Samples = nil
	blob, err := runstore.Encode(&runstore.Run{Series: runstore.SeriesOf("det-a", res.Samples)})
	if err != nil {
		t.Fatal(err)
	}
	if limit := len(frameOf(bare)) + len(blob)*3/2; len(frame) > limit {
		t.Fatalf("%d samples: %d-byte frame, above %d (1.5 × the %d-byte blob over the frame without them)",
			n, len(frame), limit, len(blob))
	}
	f, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := f.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if got := back.Reps[0].Result.Samples; !reflect.DeepEqual(got, res.Samples) {
		t.Fatalf("decoded %d stream(s), not the %d samples sent", len(got), n)
	}
}

// TestSeriesConversionRoundTrip: SeriesOf keys the capture's streams
// without copying them, and a repetition's streams cross the wire and come
// back as they were; no streams stay nil both ways.
func TestSeriesConversionRoundTrip(t *testing.T) {
	in := []metrics.OpSamples{
		{Op: "read", Samples: []metrics.Sample{{Offset: 5, Value: 50}, {Offset: 6, Value: 60}}},
		{Op: "shuffle", Substrate: true, Samples: []metrics.Sample{{Offset: 7, Value: 70}}, Dropped: 3},
	}
	series := runstore.SeriesOf("w", in)
	if len(series) != 2 || series[0].Workload != "w" || !series[1].Substrate || series[1].Dropped != 3 {
		t.Fatalf("series %+v", series)
	}
	if &series[0].Samples[0] != &in[0].Samples[0] {
		t.Fatal("SeriesOf copied the samples")
	}
	for _, samples := range [][]metrics.OpSamples{in, nil} {
		raw, err := json.Marshal(Rep{Result: metrics.Result{Samples: samples}})
		if err != nil {
			t.Fatal(err)
		}
		var back Rep
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Result.Samples, samples) {
			t.Fatalf("round trip %+v, want %+v", back.Result.Samples, samples)
		}
	}
	if runstore.SeriesOf("w", nil) != nil {
		t.Fatal("no streams must stay nil")
	}
}

// resultFrame is a result frame whose one repetition carries the given
// sample section bytes, whatever they are.
func resultFrame(tb testing.TB, samples []byte) []byte {
	tb.Helper()
	body := struct {
		Workload string    `json:"workload"`
		Reps     []repJSON `json:"reps"`
	}{"det-a", []repJSON{{Result: sampledResult("det-a", 100, 1, 0), Samples: samples}}}
	frame, err := EncodeFrame(TypeResult, body)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// corruptSampleFrames are well-framed result frames whose sample section is
// not a blob runstore accepts.
func corruptSampleFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	blob, err := runstore.Encode(&runstore.Run{Series: runstore.SeriesOf("", sampledResult("det-a", 100, 1, 50).Samples)})
	if err != nil {
		tb.Fatal(err)
	}
	flipped := bytes.Clone(blob)
	flipped[len(flipped)/2] ^= 0x10
	version := bytes.Clone(blob)
	binary.LittleEndian.PutUint16(version[4:], runstore.Version+1)
	return map[string][]byte{
		"samples-truncated":     resultFrame(tb, blob[:len(blob)-5]),
		"samples-bit-flipped":   resultFrame(tb, flipped),
		"samples-wrong-version": resultFrame(tb, version),
	}
}

// TestResultFrameCorruptSamples: a corrupt sample section is framed well,
// so DecodeFrame accepts it, and then fails Frame.Decode like a corrupt
// JSON body: an error naming the section, never a panic.
func TestResultFrameCorruptSamples(t *testing.T) {
	for name, raw := range corruptSampleFrames(t) {
		t.Run(name, func(t *testing.T) {
			f, _, err := DecodeFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			var r Result
			if err := f.Decode(&r); err == nil || !strings.Contains(err.Error(), "samples: runstore:") {
				t.Fatalf("corrupt sample section decoded: err=%v", err)
			}
		})
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
	// A protocol-4 result frame: repetitions, each with its sample section
	// as a runstore blob; and the same frame with that section corrupt.
	result, err := EncodeFrame(TypeResult, FromTaskResult(0,
		engine.Summarize("det-a", "offline analytics", []engine.Rep{{Result: sampledResult("det-a", 100, 1, 2)}}, nil)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(result)
	for _, raw := range corruptSampleFrames(f) {
		f.Add(raw)
	}
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
		// A result body goes through runstore.Decode: an error, never a panic.
		if frame.Type == TypeResult {
			var r Result
			_ = frame.Decode(&r)
		}
	})
}
