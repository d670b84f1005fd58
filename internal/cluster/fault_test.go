package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/cluster/wire"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
)

// faultOptions is coordOptions with the failure policy tightened so fault
// paths resolve in milliseconds instead of the production defaults.
func faultOptions(reg *scenario.Registry, agents []string, out string) Options {
	opts := coordOptions(reg, agents, out)
	opts.Backoff = time.Millisecond
	opts.HeartbeatTimeout = 200 * time.Millisecond
	return opts
}

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
// and writes a well-formed accept frame — so the coordinator gets past the
// handshake and the fault hits mid-shard, not at validation.
func acceptAssignment(t *testing.T, reg *scenario.Registry, w http.ResponseWriter, assign wire.Assign) {
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
	if err := wire.WriteFrame(w, wire.TypeAccept, wire.Accept{Protocol: wire.ProtocolVersion, Tasks: len(tasks)}); err != nil {
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// TestCoordinateReroutesKilledAgent: an agent whose connection drops
// mid-shard (accept sent, then the handler aborts) fails the attempt; the
// retry lands on the healthy agent and the run still produces the
// byte-identical artifact with no degraded marker.
func TestCoordinateReroutesKilledAgent(t *testing.T) {
	reg := detRegistry(t)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.blob")
	if _, err := scenario.Run(context.Background(), detSpec(), localOptions(reg, localPath)); err != nil {
		t.Fatalf("local run: %v", err)
	}
	localRaw, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}

	killed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		assign := readAssignment(t, r)
		acceptAssignment(t, reg, w, assign)
		panic(http.ErrAbortHandler) // drop the connection mid-stream
	}))
	t.Cleanup(killed.Close)
	good := startAgents(t, reg, 1)

	path := filepath.Join(dir, "dist.blob")
	out, err := Coordinate(context.Background(), detSpec(),
		faultOptions(reg, []string{killed.URL, good[0]}, path))
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

// TestCoordinateReroutesSlowAgent: an agent that accepts and then goes
// silent past the heartbeat bound is abandoned by the watchdog; the retry
// completes the run on the healthy agent within the test's lifetime (no
// hang) and the artifact is still byte-identical.
func TestCoordinateReroutesSlowAgent(t *testing.T) {
	reg := detRegistry(t)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.blob")
	if _, err := scenario.Run(context.Background(), detSpec(), localOptions(reg, localPath)); err != nil {
		t.Fatalf("local run: %v", err)
	}
	localRaw, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		assign := readAssignment(t, r)
		acceptAssignment(t, reg, w, assign)
		select { // silence: no events, no snapshots, no results
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)
	good := startAgents(t, reg, 1)

	path := filepath.Join(dir, "dist.blob")
	start := time.Now()
	out, err := Coordinate(context.Background(), detSpec(),
		faultOptions(reg, []string{slow.URL, good[0]}, path))
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if len(out.Degraded) != 0 {
		t.Fatalf("rerouted run reported degraded: %v", out.Degraded)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to abandon a silent agent", elapsed)
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

// TestCoordinateLostShardDegrades: when every attempt at a shard fails, the
// run completes degraded — the lost shard's tasks report failed, the
// outcome and the blob metadata name the shard — instead of hanging or
// silently dropping tasks.
func TestCoordinateLostShardDegrades(t *testing.T) {
	reg := detRegistry(t)
	realAgent := NewAgent(AgentOptions{Registry: reg, ToolVersion: "test", Now: frozenNow}).Handler()
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
	opts := faultOptions(reg, []string{selective.URL}, path)
	opts.Shards = 2
	opts.Retries = 1
	out, err := Coordinate(context.Background(), detSpec(), opts)
	if err == nil {
		t.Fatal("degraded run reported success")
	}
	if out == nil {
		t.Fatalf("degraded run returned no outcome: %v", err)
	}
	if len(out.Degraded) != 1 || !strings.Contains(out.Degraded[0], "shard 1/2 lost after 2 attempt(s)") {
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
func TestAgentHeartbeatEndsWithTheShard(t *testing.T) {
	reg := detRegistry(t)
	srv := httptest.NewServer(NewAgent(AgentOptions{
		Registry: reg, ToolVersion: "test", Now: frozenNow, Heartbeat: 20 * time.Microsecond,
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

// TestAgentRejectsBadHandshake: protocol and digest mismatches, and a
// placement outside the partition, are refused with an error frame before
// any workload runs.
func TestAgentRejectsBadHandshake(t *testing.T) {
	reg := detRegistry(t)
	urls := startAgents(t, reg, 1)
	n := detSpec().Normalized()
	rawSpec, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.SpecDigest(n)
	if err != nil {
		t.Fatal(err)
	}
	good := wire.Hello{Protocol: wire.ProtocolVersion, SpecDigest: digest}
	cases := []struct {
		name          string
		hello         wire.Hello
		shard, shards int
		want          string
	}{
		{"protocol-mismatch", wire.Hello{Protocol: 99, SpecDigest: digest}, 0, 1, "protocol version 99"},
		// Stale coordinators are refused, not half-understood: protocol 1
		// expected median/best copies in result frames, and protocol 2 stamped
		// the placement into the spec it sent (which this agent's strict parse
		// would reject anyway — the version check says why first).
		{"protocol-1", wire.Hello{Protocol: 1, SpecDigest: digest}, 0, 1, "protocol version 1 unsupported (agent speaks 3)"},
		{"protocol-2", wire.Hello{Protocol: 2, SpecDigest: digest}, 0, 1, "protocol version 2 unsupported (agent speaks 3)"},
		{"digest-mismatch", wire.Hello{Protocol: wire.ProtocolVersion, SpecDigest: "deadbeef"}, 0, 1, "spec digest mismatch"},
		{"shard-at-shards", good, 2, 2, "shard 2/2 out of range"},
		{"negative-shard", good, -1, 2, "shard -1/2 out of range"},
		{"no-shards", good, 0, 0, "shard 0/0 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body bytes.Buffer
			if err := wire.WriteFrame(&body, wire.TypeHello, tc.hello); err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteFrame(&body, wire.TypeAssign, wire.Assign{Spec: rawSpec, Shard: tc.shard, Shards: tc.shards}); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(urls[0]+ShardPath, "application/x-bdbench-frames", &body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			f, err := wire.ReadFrame(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
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
