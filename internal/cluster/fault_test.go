package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/cluster/wire"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/workloads"
)

// fakeHeartbeat is the period the fake agents announce, so a silent one is
// abandoned after silentPeriods × 10 ms = 150 ms.
const fakeHeartbeat = 10 * time.Millisecond

// readAssignment consumes a shard request's hello+assign frames and returns
// the decoded assignment — the shared front half of every fake agent.
func readAssignment(t *testing.T, r *http.Request) wire.Assign {
	t.Helper()
	if _, err := wire.ReadFrame(r.Body); err != nil {
		t.Errorf("fake agent: read hello: %v", err)
	}
	f, err := wire.ReadFrame(r.Body)
	if err != nil {
		t.Errorf("fake agent: read assign: %v", err)
	}
	var assign wire.Assign
	if err := f.Decode(&assign); err != nil {
		t.Errorf("fake agent: decode assign: %v", err)
	}
	return assign
}

// acceptAssignment resolves the assignment exactly as a real agent would
// and writes an accept frame announcing heartbeat — so, with a positive
// period, the coordinator gets past the handshake and the fault hits
// mid-shard, not at validation.
func acceptAssignment(t *testing.T, reg *scenario.Registry, w http.ResponseWriter, assign wire.Assign, heartbeat time.Duration) {
	t.Helper()
	spec, err := scenario.Parse(assign.Spec)
	if err != nil {
		t.Errorf("fake agent: parse spec: %v", err)
		return
	}
	tasks, err := spec.Tasks(reg)
	if err == nil {
		tasks, err = scenario.Shard(tasks, assign.Shard, assign.Shards)
	}
	if err != nil {
		t.Errorf("fake agent: resolve tasks: %v", err)
		return
	}
	if err := wire.WriteFrame(w, wire.TypeAccept, wire.Accept{Protocol: wire.ProtocolVersion, Tasks: len(tasks), Heartbeat: heartbeat}); err != nil {
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// assertReroutedMatchesLocal runs detSpec with the faulty agent first and a
// healthy one second: every shard's first attempt hits the fault, the retry
// lands on the healthy agent, and the run must produce the single-process
// artifact byte for byte, with no degraded marker.
func assertReroutedMatchesLocal(t *testing.T, reg *scenario.Registry, faulty string) {
	t.Helper()
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.blob")
	if _, err := scenario.Run(context.Background(), detSpec(), localOptions(reg, localPath)); err != nil {
		t.Fatalf("local run: %v", err)
	}
	localRaw, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	good := startAgents(t, reg, 1)
	path := filepath.Join(dir, "dist.blob")
	out, err := Coordinate(context.Background(), detSpec(), coordOptions(reg, []string{faulty, good[0]}, path))
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if len(out.Degraded) != 0 {
		t.Fatalf("rerouted run reported degraded: %v", out.Degraded)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, localRaw) {
		t.Fatalf("rerouted blob differs from single-process blob: %s vs %s",
			runstore.DigestBytes(raw), runstore.DigestBytes(localRaw))
	}
}

// TestCoordinateReroutesKilledAgent: an agent whose connection drops
// mid-shard (accept sent, then the handler aborts) fails the attempt; the
// retry lands on the healthy agent and the run still produces the
// byte-identical artifact with no degraded marker.
func TestCoordinateReroutesKilledAgent(t *testing.T) {
	reg := detRegistry(t)
	killed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		assign := readAssignment(t, r)
		acceptAssignment(t, reg, w, assign, fakeHeartbeat)
		panic(http.ErrAbortHandler) // drop the connection mid-stream
	}))
	t.Cleanup(killed.Close)
	assertReroutedMatchesLocal(t, reg, killed.URL)
}

// TestCoordinateReroutesSlowAgent: an agent that accepts and then goes
// silent past the heartbeat bound is abandoned by the watchdog; the retry
// completes the run on the healthy agent within the test's lifetime (no
// hang) and the artifact is still byte-identical.
func TestCoordinateReroutesSlowAgent(t *testing.T) {
	reg := detRegistry(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		assign := readAssignment(t, r)
		acceptAssignment(t, reg, w, assign, fakeHeartbeat)
		select { // silence: no events, no snapshots, no results
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)
	start := time.Now()
	assertReroutedMatchesLocal(t, reg, slow.URL)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to abandon a silent agent", elapsed)
	}
}

// corruptingWriter passes an agent's frames through, changing one base64
// character of every sample section: the frames stay well framed and well
// formed JSON, and only runstore's checks can tell.
type corruptingWriter struct{ http.ResponseWriter }

func (w corruptingWriter) Write(p []byte) (int, error) {
	key := []byte(`"samples":"`)
	p = bytes.Clone(p)
	for off := 0; ; {
		i := bytes.Index(p[off:], key)
		if i < 0 {
			break
		}
		off += i + len(key) + 16
		if p[off] == 'A' {
			p[off] = 'B'
		} else {
			p[off] = 'A'
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w corruptingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestCoordinateReroutesCorruptSamples: an agent whose result frame carries
// a corrupt sample section fails the attempt as a corrupt JSON body would;
// the retry lands on the healthy agent and the artifact is still
// byte-identical. Were the sections accepted, the shard would complete on
// the corrupting agent without its samples.
func TestCoordinateReroutesCorruptSamples(t *testing.T) {
	reg := detRegistry(t)
	agent := NewAgent(AgentOptions{Registry: reg, Now: frozenNow}).Handler()
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agent.ServeHTTP(corruptingWriter{w}, r)
	}))
	t.Cleanup(corrupt.Close)
	assertReroutedMatchesLocal(t, reg, corrupt.URL)
}

// hugeLabel records one observation under an operation label longer than a
// runstore name may be, so its sample section cannot be encoded.
type hugeLabel struct{ detWorkload }

func (hugeLabel) Run(_ context.Context, _ workloads.Params, c *metrics.Collector) error {
	c.Op(strings.Repeat("x", math.MaxUint16+1)).Observe(time.Millisecond)
	return nil
}

// TestAgentReportsUnencodableResult: a result the agent cannot encode is an
// error frame naming the failure, not a silent hang-up the coordinator can
// only report as a stream that ended early.
func TestAgentReportsUnencodableResult(t *testing.T) {
	reg := scenario.NewRegistry()
	if err := reg.RegisterWorkload(hugeLabel{detWorkload{name: "huge-label", cat: workloads.Offline}}); err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{Name: "huge", Entries: []scenario.Entry{{Workload: "huge-label"}},
		Seed: 1, Scale: 1, Workers: 1, DatagenWorkers: 1, Parallel: 1, Reps: 1}
	opts := coordOptions(reg, startAgents(t, reg, 1), "")
	out, err := Coordinate(context.Background(), spec, opts)
	if err == nil || out == nil || len(out.Degraded) != 1 {
		t.Fatalf("unencodable result: err=%.300v, want one degraded shard", err)
	}
	note := out.Degraded[0]
	if !strings.Contains(note, "agent: task 0 (huge-label)") || !strings.Contains(note, "exceeds 65535 bytes") {
		t.Fatalf("degraded note does not carry the encode error: %.300s", note)
	}
}

// TestCoordinateLostShardDegrades: when every attempt at a shard fails, the
// run completes degraded — the lost shard's tasks report failed, the
// outcome and the blob metadata name the shard — instead of hanging or
// silently dropping tasks.
func TestCoordinateLostShardDegrades(t *testing.T) {
	reg := detRegistry(t)
	realAgent := NewAgent(AgentOptions{Registry: reg, Now: frozenNow}).Handler()
	// Healthy for every shard except index 1, which always aborts — so
	// retries (all landing back on this one agent) cannot save it.
	selective := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		tee := io.TeeReader(r.Body, &buf)
		if _, err := wire.ReadFrame(tee); err != nil {
			t.Errorf("selective agent: read hello: %v", err)
		}
		f, err := wire.ReadFrame(tee)
		if err != nil {
			t.Errorf("selective agent: read assign: %v", err)
		}
		var assign wire.Assign
		if err := f.Decode(&assign); err != nil {
			t.Errorf("selective agent: decode assign: %v", err)
		}
		if assign.Shard == 1 {
			panic(http.ErrAbortHandler)
		}
		r.Body = io.NopCloser(&buf)
		realAgent.ServeHTTP(w, r)
	}))
	t.Cleanup(selective.Close)

	dir := t.TempDir()
	path := filepath.Join(dir, "degraded.blob")
	opts := coordOptions(reg, []string{selective.URL}, path)
	opts.Shards = 2
	out, err := Coordinate(context.Background(), detSpec(), opts)
	if err == nil {
		t.Fatal("degraded run reported success")
	}
	if out == nil {
		t.Fatalf("degraded run returned no outcome: %v", err)
	}
	if len(out.Degraded) != 1 || !strings.Contains(out.Degraded[0], "shard 1/2 lost after 3 attempt(s)") {
		t.Fatalf("degraded markers = %v", out.Degraded)
	}
	// Shard 1 of 2 owns global tasks 1 and 3 of the five.
	if out.Failures != 2 {
		t.Fatalf("failures = %d, want 2 (the lost shard's tasks)", out.Failures)
	}
	for i, r := range out.Results {
		lost := i%2 == 1
		if lost && (r.Err == nil || !strings.Contains(r.Error, "shard 1/2 lost")) {
			t.Fatalf("lost task %d: err=%v error=%q", i, r.Err, r.Error)
		}
		if !lost && r.Err != nil {
			t.Fatalf("healthy task %d failed: %v", i, r.Err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("degraded run wrote no artifact: %v", err)
	}
	run, err := runstore.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Meta.Degraded) != 1 || !strings.Contains(run.Meta.Degraded[0], "shard 1/2 lost") {
		t.Fatalf("blob degraded markers = %v", run.Meta.Degraded)
	}
}

// TestAgentHeartbeatEndsWithTheShard: the heartbeat goroutine has exited
// when the shard handler returns. With a period far below a shard's run time
// a tick is always due as the shard finishes; a heartbeat that outlived its
// handler wrote to a response the server had taken back and crashed the
// agent (seen under the repo benchmark's cluster_loopback at -seconds 1).
// At 20 µs the coordinator abandons the agent after 300 µs of silence, so
// the runs also hold that heartbeats keep flowing while results encode.
func TestAgentHeartbeatEndsWithTheShard(t *testing.T) {
	reg := detRegistry(t)
	srv := httptest.NewServer(NewAgent(AgentOptions{
		Registry: reg, Now: frozenNow, Heartbeat: 20 * time.Microsecond,
	}).Handler())
	defer srv.Close()
	spec := detSpec()
	spec.Scale, spec.Reps = 1, 1
	for i := 0; i < 20; i++ {
		opts := coordOptions(reg, []string{srv.URL}, filepath.Join(t.TempDir(), "run.blob"))
		if _, err := Coordinate(context.Background(), spec, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// tricklingWriter delivers a shard's first result frame in 16-byte pieces,
// each followed by a 5 ms pause, so the frame takes far longer than the
// coordinator's silence bound to arrive while its bytes never stop; size is
// that frame's length.
type tricklingWriter struct {
	http.ResponseWriter
	size *atomic.Int64
}

func (w tricklingWriter) Write(p []byte) (int, error) {
	if f, _, err := wire.DecodeFrame(p); err != nil || f.Type != wire.TypeResult || !w.size.CompareAndSwap(0, int64(len(p))) {
		return w.ResponseWriter.Write(p)
	}
	for off := 0; off < len(p); off += 16 {
		if _, err := w.ResponseWriter.Write(p[off:min(off+16, len(p))]); err != nil {
			return off, err
		}
		w.Flush()
		time.Sleep(5 * time.Millisecond)
	}
	return len(p), nil
}

func (w tricklingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestSlowResultFrameIsNotSilence: the coordinator's silence bound counts
// only the time it waits for the agent's bytes, so a result frame whose
// transfer takes longer than silentPeriods of the agent's heartbeat, but
// whose bytes keep coming, completes the shard on the first attempt.
func TestSlowResultFrameIsNotSilence(t *testing.T) {
	reg := detRegistry(t)
	agent := NewAgent(AgentOptions{Registry: reg, Now: frozenNow, Heartbeat: fakeHeartbeat}).Handler()
	var size atomic.Int64
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		agent.ServeHTTP(tricklingWriter{w, &size}, r)
	}))
	t.Cleanup(srv.Close)
	out, err := Coordinate(context.Background(), detSpec(), coordOptions(reg, []string{srv.URL}, ""))
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if len(out.Degraded) != 0 || attempts.Load() != 1 {
		t.Fatalf("%d attempt(s), degraded: %v", attempts.Load(), out.Degraded)
	}
	pieces := (size.Load() + 15) / 16
	if took, bound := time.Duration(pieces)*5*time.Millisecond, silentPeriods*fakeHeartbeat; took <= bound {
		t.Fatalf("the trickled frame took at least %v, not above the %v silence bound", took, bound)
	}
}

// blockingBody's encoding waits for release, after signalling entered.
type blockingBody struct{ entered, release chan struct{} }

func (b blockingBody) MarshalJSON() ([]byte, error) {
	close(b.entered)
	<-b.release
	return []byte("{}"), nil
}

// TestHeartbeatWritesWhileAFrameEncodes: an agent encodes a frame before it
// takes the stream, so a heartbeat is not held up by a large result's
// encoding, which at a short heartbeat could outlast the coordinator's
// silence bound.
func TestHeartbeatWritesWhileAFrameEncodes(t *testing.T) {
	rec := httptest.NewRecorder()
	fw := &frameWriter{w: rec, f: rec}
	body := blockingBody{entered: make(chan struct{}), release: make(chan struct{})}
	result := make(chan error, 1)
	go func() { result <- fw.write(wire.TypeResult, body) }()
	<-body.entered
	snapshot := make(chan error, 1)
	go func() { snapshot <- fw.write(wire.TypeSnapshot, nil) }()
	select {
	case err := <-snapshot:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(body.release)
		t.Fatal("the heartbeat waited for another frame's encoding")
	}
	close(body.release)
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.DecodeFrame(rec.Body.Bytes())
	if err != nil || f.Type != wire.TypeSnapshot {
		t.Fatalf("first frame %q (%v), want the snapshot", f.Type, err)
	}
}

// quietWorkload's one repetition waits d of wall time, so its stream
// carries nothing but the agent's heartbeat until it ends.
type quietWorkload struct {
	detWorkload
	d time.Duration
}

func (w quietWorkload) Run(ctx context.Context, _ workloads.Params, _ *metrics.Collector) error {
	select {
	case <-time.After(w.d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestCoordinatorFollowsTheAgentHeartbeat: the coordinator abandons an
// attempt after silentPeriods of the heartbeat its agent announces. An agent
// at a 300 ms heartbeat whose one repetition runs 400 ms without an event
// completes; an agent that announces 10 ms and falls silent is abandoned
// and rerouted within a second; and an agent that announces no period is
// refused.
func TestCoordinatorFollowsTheAgentHeartbeat(t *testing.T) {
	t.Run("quiet-repetition-completes", func(t *testing.T) {
		reg := scenario.NewRegistry()
		w := quietWorkload{detWorkload{name: "quiet", cat: workloads.Offline}, 400 * time.Millisecond}
		if err := reg.RegisterWorkload(w); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewAgent(AgentOptions{Registry: reg, Now: frozenNow, Heartbeat: 300 * time.Millisecond}).Handler())
		t.Cleanup(srv.Close)
		spec := scenario.Spec{Name: "quiet", Entries: []scenario.Entry{{Workload: w.name}},
			Seed: 1, Scale: 1, Workers: 1, DatagenWorkers: 1, Parallel: 1, Reps: 1}
		out, err := Coordinate(context.Background(), spec, coordOptions(reg, []string{srv.URL}, ""))
		if err != nil {
			t.Fatalf("coordinate: %v", err)
		}
		if len(out.Degraded) != 0 {
			t.Fatalf("degraded: %v", out.Degraded)
		}
	})
	t.Run("silent-agent-rerouted", func(t *testing.T) {
		reg := detRegistry(t)
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			acceptAssignment(t, reg, w, readAssignment(t, r), fakeHeartbeat)
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		t.Cleanup(silent.Close)
		agents := []string{silent.URL, startAgents(t, reg, 1)[0]}
		start := time.Now()
		out, err := Coordinate(context.Background(), detSpec(), coordOptions(reg, agents, ""))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("coordinate: %v", err)
		}
		if len(out.Degraded) != 0 {
			t.Fatalf("degraded: %v", out.Degraded)
		}
		if elapsed > time.Second {
			t.Fatalf("a silent agent announcing %v was abandoned and rerouted in %v, want within 1s", fakeHeartbeat, elapsed)
		}
	})
	t.Run("no-heartbeat-refused", func(t *testing.T) {
		reg := detRegistry(t)
		mute := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			acceptAssignment(t, reg, w, readAssignment(t, r), 0)
		}))
		t.Cleanup(mute.Close)
		out, err := Coordinate(context.Background(), detSpec(), coordOptions(reg, []string{mute.URL}, ""))
		if err == nil || out == nil || len(out.Degraded) != 1 {
			t.Fatalf("agent without a heartbeat: err=%v, want one degraded shard", err)
		}
		if note := out.Degraded[0]; !strings.Contains(note, "agent announced a heartbeat of 0s") {
			t.Fatalf("degraded note does not name the heartbeat: %s", note)
		}
	})
}

// unwinding calls started on entry, then waits for its context's cancel,
// takes 20 ms to unwind, and sets returned.
type unwinding struct {
	detWorkload
	started  func()
	returned *atomic.Bool
}

func (w unwinding) Run(ctx context.Context, _ workloads.Params, _ *metrics.Collector) error {
	w.started()
	<-ctx.Done()
	time.Sleep(20 * time.Millisecond)
	w.returned.Store(true)
	return ctx.Err()
}

// TestAgentShardWaitsForItsWorkload: the coordinator's context is cancelled
// mid-shard, and the agent's shard handler returns only after the workload
// it was running has.
func TestAgentShardWaitsForItsWorkload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var returned atomic.Bool
	reg := scenario.NewRegistry()
	w := unwinding{detWorkload: detWorkload{name: "unwinding", cat: workloads.Offline}, started: cancel, returned: &returned}
	if err := reg.RegisterWorkload(w); err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(AgentOptions{Registry: reg, Now: frozenNow}).Handler()
	handled := make(chan bool, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agent.ServeHTTP(w, r)
		handled <- returned.Load()
	}))
	defer srv.Close()
	spec := scenario.Spec{Name: "cancel", Entries: []scenario.Entry{{Workload: w.name}},
		Seed: 1, Scale: 1, Workers: 1, DatagenWorkers: 1, Parallel: 1}
	opts := coordOptions(reg, []string{srv.URL}, filepath.Join(t.TempDir(), "run.blob"))
	if _, err := Coordinate(ctx, spec, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Coordinate = %v, want context.Canceled", err)
	}
	select {
	case ok := <-handled:
		if !ok {
			t.Fatal("the shard handler returned before its workload did")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the shard handler never returned")
	}
}

// TestAgentRejectsBadHandshake: protocol and digest mismatches, and a
// placement outside the partition, are refused with an error frame before
// any workload runs.
func TestAgentRejectsBadHandshake(t *testing.T) {
	reg := detRegistry(t)
	urls := startAgents(t, reg, 1)
	good, rawSpec := handshake(t, detSpec())
	digest := good.SpecDigest
	cases := []struct {
		name          string
		hello         wire.Hello
		shard, shards int
		want          string
	}{
		{"protocol-mismatch", wire.Hello{Protocol: 99, SpecDigest: digest}, 0, 1, "protocol version 99"},
		// Stale coordinators are refused, not half-understood: protocol 1
		// expected median/best copies in result frames, protocol 2 stamped
		// the placement into the spec it sent (which this agent's strict parse
		// would reject anyway — the version check says why first), and
		// protocol 3 read samples as JSON pairs, not a runstore blob, and
		// protocol 4 expected no heartbeat period in the accept frame.
		{"protocol-1", wire.Hello{Protocol: 1, SpecDigest: digest}, 0, 1, "protocol version 1 unsupported (agent speaks 5)"},
		{"protocol-2", wire.Hello{Protocol: 2, SpecDigest: digest}, 0, 1, "protocol version 2 unsupported (agent speaks 5)"},
		{"protocol-3", wire.Hello{Protocol: 3, SpecDigest: digest}, 0, 1, "protocol version 3 unsupported (agent speaks 5)"},
		{"protocol-4", wire.Hello{Protocol: 4, SpecDigest: digest}, 0, 1, "protocol version 4 unsupported (agent speaks 5)"},
		{"digest-mismatch", wire.Hello{Protocol: wire.ProtocolVersion, SpecDigest: "deadbeef"}, 0, 1, "spec digest mismatch"},
		{"shard-at-shards", good, 2, 2, "shard 2/2 out of range"},
		{"negative-shard", good, -1, 2, "shard -1/2 out of range"},
		{"no-shards", good, 0, 0, "shard 0/0 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := shardFrames(t, urls[0], tc.hello, wire.Assign{Spec: rawSpec, Shard: tc.shard, Shards: tc.shards})
			if len(frames) != 1 {
				t.Fatalf("%d frame(s), want one error frame", len(frames))
			}
			f := frames[0]
			if f.Type != wire.TypeError {
				t.Fatalf("frame type %s, want error", f.Type)
			}
			var we wire.Error
			if err := f.Decode(&we); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(we.Message, tc.want) {
				t.Fatalf("error %q does not mention %q", we.Message, tc.want)
			}
		})
	}
}

// handshake returns the hello a coordinator sends for spec, and the
// normalized spec an assignment carries.
func handshake(t *testing.T, spec scenario.Spec) (wire.Hello, json.RawMessage) {
	t.Helper()
	n := spec.Normalized()
	rawSpec, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.SpecDigest(n)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Hello{Protocol: wire.ProtocolVersion, SpecDigest: digest}, rawSpec
}

// shardFrames posts one hello and assign frame pair straight to an agent and
// returns every frame of its response.
func shardFrames(t *testing.T, url string, hello wire.Hello, assign wire.Assign) []wire.Frame {
	t.Helper()
	var body bytes.Buffer
	if err := wire.WriteFrame(&body, wire.TypeHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(&body, wire.TypeAssign, assign); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+ShardPath, "application/x-bdbench-frames", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []wire.Frame
	for {
		f, err := wire.ReadFrame(resp.Body)
		if errors.Is(err, io.EOF) {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
}
