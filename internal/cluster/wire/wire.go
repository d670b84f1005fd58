// Package wire is the coordinator↔agent protocol of bdbench's distributed
// mode: length-prefixed JSON frames over one streamed HTTP exchange. The
// coordinator's request body carries a handshake (Hello: protocol version +
// spec digest) and a shard assignment (Assign: the normalized spec, which
// shard of how many to execute, and the engine knobs that live outside the
// spec); the agent's response streams Accept (which announces the agent's
// heartbeat period), then engine Events interleaved with periodic empty
// snapshot frames, then one Result frame per shard-local task. A result is
// its measured repetitions — each sample crosses the wire once, in the
// runstore blob encoding the artifact stores — and the coordinator
// re-derives median, best and throughput from them with the engine's own
// rule (engine.Summarize), exactly as a local run does.
//
// Framing is deliberately defensive: a four-byte big-endian length, capped
// at MaxFrameSize, prefixes every JSON envelope, and ReadFrame/DecodeFrame
// reject truncation, lying lengths and non-JSON bodies with errors rather
// than panics — a malicious or stale agent must never take the coordinator
// down (FuzzDecodeFrame holds that line).
//
//bdvet:deterministic
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/workloads"
)

// ProtocolVersion is the wire protocol version. A Hello carrying any other
// value is rejected at handshake — framing or semantics changes bump it, so
// a stale agent fails loudly instead of mis-executing a shard.
const ProtocolVersion = 5

// MaxFrameSize caps one frame's JSON body (64 MiB). A length prefix above
// it is treated as corruption: the reader fails instead of allocating
// whatever an attacker's four bytes ask for.
const MaxFrameSize = 64 << 20

// The frame types.
const (
	// TypeHello opens the exchange (coordinator → agent).
	TypeHello = "hello"
	// TypeAssign carries the shard assignment (coordinator → agent).
	TypeAssign = "assign"
	// TypeAccept acknowledges the handshake and assignment (agent →
	// coordinator); the first response frame.
	TypeAccept = "accept"
	// TypeEvent streams one engine progress event (agent → coordinator).
	TypeEvent = "event"
	// TypeSnapshot is the periodic heartbeat (agent → coordinator), a frame
	// with no body: its arrival is what keeps the liveness watchdog fed.
	TypeSnapshot = "snapshot"
	// TypeResult carries one finished shard-local task (agent → coordinator).
	TypeResult = "result"
	// TypeError aborts the exchange with a message (either direction).
	TypeError = "error"
)

// Frame is the envelope every message travels in.
type Frame struct {
	Type string          `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Hello is the coordinator's handshake: which protocol, and — via the
// digest of the normalized spec — which run this is. The agent recomputes
// the digest from the assignment it receives and refuses on mismatch, so a
// corrupted or mismatched spec can never execute.
type Hello struct {
	Protocol   int    `json:"protocol"`
	SpecDigest string `json:"specDigest"`
}

// Assign is the shard assignment: the normalized spec as strict JSON — the
// same bytes for every shard of a run — plus what lives outside a spec:
// the placement and the engine knobs.
type Assign struct {
	Spec json.RawMessage `json:"spec"`
	// Shard of Shards is the slice of the spec's resolved task list this
	// assignment covers (scenario.Shard); the agent refuses Shards < 1 or a
	// Shard outside [0, Shards).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// SampleCap is the per-op-cell raw latency capture bound the coordinator
	// resolved (0 = capture off).
	SampleCap int `json:"sampleCap,omitempty"`
}

// Accept is the agent's acknowledgment: its protocol, how many shard-local
// tasks the assignment resolved to, and its heartbeat period. The
// coordinator cross-checks Tasks against its own partitioning — a registry
// drift between binaries surfaces here, before any workload runs — and
// derives its silence bound from Heartbeat, which must be positive.
type Accept struct {
	Protocol  int           `json:"protocol"`
	Tasks     int           `json:"tasks"`
	Heartbeat time.Duration `json:"heartbeatNs"`
}

// Event is one engine progress event in transit; Task is shard-local (the
// coordinator remaps it to the global task index before forwarding).
type Event struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Task     int    `json:"task"`
	Rep      int    `json:"rep"`
	Warmup   bool   `json:"warmup,omitempty"`
	Err      string `json:"err,omitempty"`
	// ElapsedNs is Event.Elapsed in nanoseconds.
	ElapsedNs int64 `json:"elapsedNs,omitempty"`
}

// FromEvent converts an engine event to its wire form.
func FromEvent(e engine.Event) Event {
	w := Event{
		Kind:      string(e.Kind),
		Workload:  e.Workload,
		Task:      e.Task,
		Rep:       e.Rep,
		Warmup:    e.Warmup,
		ElapsedNs: int64(e.Elapsed),
	}
	if e.Err != nil {
		w.Err = e.Err.Error()
	}
	return w
}

// ToEvent converts back; errors come back as opaque messages.
func (e Event) ToEvent() engine.Event {
	out := engine.Event{
		Kind:     engine.EventKind(e.Kind),
		Workload: e.Workload,
		Task:     e.Task,
		Rep:      e.Rep,
		Warmup:   e.Warmup,
		Elapsed:  time.Duration(e.ElapsedNs),
	}
	if e.Err != "" {
		out.Err = errors.New(e.Err)
	}
	return out
}

// Rep is one measured repetition in transit. Its Result travels as JSON
// (which round-trips exactly: shortest-representation floats, sorted map
// keys), its error as a message, and the raw latency streams metrics
// excludes from JSON as a runstore blob: the artifact's own encoding.
type Rep engine.Rep

// repJSON is Rep's wire shape; Samples is base64 in the JSON.
type repJSON struct {
	Result  metrics.Result `json:"result"`
	Samples []byte         `json:"samples,omitempty"`
	Err     string         `json:"err,omitempty"`
}

// MarshalJSON encodes the streams with runstore.Encode, as series with no
// workload, so a stream runstore cannot encode fails EncodeFrame. Encode
// sorts each stream in place, and the streams are the caller's.
func (r Rep) MarshalJSON() ([]byte, error) {
	w := repJSON{Result: r.Result}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	if len(r.Result.Samples) > 0 {
		var err error
		if w.Samples, err = runstore.Encode(&runstore.Run{Series: runstore.SeriesOf("", r.Result.Samples)}); err != nil {
			return nil, err
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the streams with runstore.Decode, CRC and length
// checks included, so a corrupt sample section fails Frame.Decode as a
// corrupt JSON body does. An error's identity (errors.Is) does not survive
// the wire; its message does.
func (r *Rep) UnmarshalJSON(raw []byte) error {
	var w repJSON
	if err := json.Unmarshal(raw, &w); err != nil {
		return err
	}
	*r = Rep{Result: w.Result}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	if len(w.Samples) == 0 {
		return nil
	}
	run, err := runstore.Decode(w.Samples)
	if err != nil {
		return fmt.Errorf("samples: %w", err)
	}
	r.Result.Samples = make([]metrics.OpSamples, len(run.Series))
	for i, s := range run.Series {
		r.Result.Samples[i] = metrics.OpSamples{Op: s.Op, Substrate: s.Substrate, Samples: s.Samples, Dropped: s.Dropped}
	}
	return nil
}

// Result is one finished shard-local task: its measured repetitions and,
// for an open-loop task, the window's load statistics. Everything else in
// an engine.TaskResult is derived from those on arrival.
type Result struct {
	// Task is the shard-local task index (position in the agent's resolved
	// task list); the coordinator maps it back to the global index via
	// scenario.ShardIndices.
	Task     int            `json:"task"`
	Workload string         `json:"workload"`
	Category string         `json:"category"`
	Reps     []Rep          `json:"reps,omitempty"`
	Load     *loadgen.Stats `json:"load,omitempty"`
}

// Error is the abort frame's body.
type Error struct {
	Message string `json:"message"`
}

// FromTaskResult converts one engine result to its wire form. task is the
// shard-local index.
func FromTaskResult(task int, r engine.TaskResult) Result {
	w := Result{Task: task, Workload: r.Workload, Category: string(r.Category), Load: r.Load}
	for _, rep := range r.Reps {
		w.Reps = append(w.Reps, Rep(rep))
	}
	return w
}

// ToTaskResult converts back, re-deriving what the repetitions determine.
func (r Result) ToTaskResult() engine.TaskResult {
	var reps []engine.Rep
	for _, rep := range r.Reps {
		reps = append(reps, engine.Rep(rep))
	}
	return engine.Summarize(r.Workload, workloads.Category(r.Category), reps, r.Load)
}

// EncodeFrame renders one frame to its length-prefixed bytes.
func EncodeFrame(typ string, body any) ([]byte, error) {
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("wire: encode %s body: %w", typ, err)
		}
		raw = b
	}
	payload, err := json.Marshal(Frame{Type: typ, Body: raw})
	if err != nil {
		return nil, fmt.Errorf("wire: encode %s frame: %w", typ, err)
	}
	if len(payload) > MaxFrameSize {
		return nil, fmt.Errorf("wire: %s frame is %d bytes, above the %d cap", typ, len(payload), MaxFrameSize)
	}
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out, nil
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, typ string, body any) error {
	raw, err := EncodeFrame(typ, body)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("wire: write %s frame: %w", typ, err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r. It returns io.EOF only
// on a clean boundary (no bytes before the stream ended); a stream that
// dies mid-frame returns io.ErrUnexpectedEOF, and a length prefix above
// MaxFrameSize (or zero) fails without allocating the claimed size.
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxFrameSize {
		return Frame{}, fmt.Errorf("wire: frame length %d outside (0, %d]", n, MaxFrameSize)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: read %d-byte frame: %w", n, err)
	}
	return parseFrame(payload)
}

// DecodeFrame decodes the first frame in buf and returns it with the number
// of bytes consumed — the fuzz-facing entry point. All the ReadFrame
// guards apply; corrupt input is an error, never a panic.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, fmt.Errorf("wire: %d bytes is shorter than a frame length prefix", len(buf))
	}
	n := binary.BigEndian.Uint32(buf)
	if n == 0 || n > MaxFrameSize {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d outside (0, %d]", n, MaxFrameSize)
	}
	if uint64(len(buf)-4) < uint64(n) {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d overruns the %d available bytes", n, len(buf)-4)
	}
	f, err := parseFrame(buf[4 : 4+n])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + int(n), nil
}

func parseFrame(payload []byte) (Frame, error) {
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return Frame{}, fmt.Errorf("wire: bad frame JSON: %w", err)
	}
	if f.Type == "" {
		return Frame{}, fmt.Errorf("wire: frame has no type")
	}
	return f, nil
}

// Decode unmarshals the frame's body into dst.
func (f Frame) Decode(dst any) error {
	if len(f.Body) == 0 {
		return fmt.Errorf("wire: %s frame has no body", f.Type)
	}
	if err := json.Unmarshal(f.Body, dst); err != nil {
		return fmt.Errorf("wire: bad %s body: %w", f.Type, err)
	}
	return nil
}
