// Package cluster is bdbench's distributed execution layer: a coordinator
// that partitions a scenario's resolved tasks across shards and dispatches
// them to agents over HTTP (Coordinate), and the agent that executes one
// shard per request on the in-process engine (Agent, ServeAgent). The wire
// subpackage defines the framing.
//
// The design invariant is that distribution changes *where* Step 4 of the
// five-step process executes, never *what* it computes: the coordinator
// runs the ordinary scenario pipeline with the Execution step swapped for a
// distributed executor, each agent resolves the same normalized spec
// against the same registry and keeps the slice its assignment names, and
// per-shard results are reassembled in global task order. For a (spec,
// seed)-deterministic scenario the merged run artifact is byte-identical to
// a single-process run — the equivalence tests in this package hold that
// contract.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/cluster/wire"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/scenario"
)

// ShardPath is the agent's one HTTP endpoint: POST a hello + assign frame
// pair, receive the streamed shard execution.
const ShardPath = "/v1/shard"

// DefaultHeartbeat is the agent's progress-snapshot period.
const DefaultHeartbeat = time.Second

// shutdownDrain bounds how long a stopping agent waits for in-flight
// shards before closing their connections.
const shutdownDrain = 10 * time.Second

// AgentOptions configures an Agent.
type AgentOptions struct {
	// Registry resolves the spec's names; nil means scenario.Default(). It
	// must hold the same inventory as the coordinator's registry — the
	// handshake's task-count cross-check rejects drifted agents.
	Registry *scenario.Registry
	// ToolVersion is echoed in the handshake (bdbench.Version through the
	// public API).
	ToolVersion string
	// Now is the engine clock seam (engine.Config.Now); nil means real time.
	// Determinism tests freeze it on agents and coordinator alike.
	Now func() time.Time
	// Heartbeat is the progress-snapshot period (DefaultHeartbeat when 0) —
	// the liveness signal the coordinator's watchdog feeds on while a long
	// task produces no events.
	Heartbeat time.Duration
}

// Agent serves scenario shards. One Agent handles any number of concurrent
// shard requests; each request is independent (own collector set, own
// engine pool).
type Agent struct {
	opts AgentOptions
}

// NewAgent returns an agent with the options' defaults filled.
func NewAgent(opts AgentOptions) *Agent {
	if opts.Registry == nil {
		opts.Registry = scenario.Default()
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	return &Agent{opts: opts}
}

// Handler returns the agent's HTTP handler (ShardPath only).
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(ShardPath, a.serveShard)
	return mux
}

// frameWriter serializes frame writes from the engine's event callback and
// the heartbeat goroutine onto one response stream, flushing after every
// frame so the coordinator's liveness watchdog sees bytes promptly.
type frameWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	f  http.Flusher
}

func (fw *frameWriter) write(typ string, body any) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := wire.WriteFrame(fw.w, typ, body); err != nil {
		return err
	}
	if fw.f != nil {
		fw.f.Flush()
	}
	return nil
}

func (fw *frameWriter) fail(format string, args ...any) {
	_ = fw.write(wire.TypeError, wire.Error{Message: fmt.Sprintf(format, args...)})
}

// serveShard executes one shard: handshake, assignment, engine run,
// streamed results. Protocol violations abort with an error frame; a
// dropped coordinator connection cancels the request context, which the
// engine observes and aborts on.
func (a *Agent) serveShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	flusher, _ := w.(http.Flusher)
	fw := &frameWriter{w: w, f: flusher}
	w.Header().Set("Content-Type", "application/x-bdbench-frames")

	var hello wire.Hello
	if err := readBody(r, wire.TypeHello, &hello); err != nil {
		fw.fail("agent: %v", err)
		return
	}
	if hello.Protocol != wire.ProtocolVersion {
		fw.fail("agent: protocol version %d unsupported (agent speaks %d)", hello.Protocol, wire.ProtocolVersion)
		return
	}
	var assign wire.Assign
	if err := readBody(r, wire.TypeAssign, &assign); err != nil {
		fw.fail("agent: %v", err)
		return
	}
	spec, err := scenario.Parse(assign.Spec)
	if err != nil {
		fw.fail("agent: assignment spec: %v", err)
		return
	}
	digest, err := scenario.SpecDigest(spec)
	if err != nil {
		fw.fail("agent: digest assignment spec: %v", err)
		return
	}
	if digest != hello.SpecDigest {
		fw.fail("agent: spec digest mismatch: handshake %s, assignment %s", hello.SpecDigest, digest)
		return
	}
	n := spec.Normalized()
	tasks, err := n.Tasks(a.opts.Registry)
	if err == nil {
		tasks, err = scenario.Shard(tasks, assign.Shard, assign.Shards)
	}
	if err != nil {
		fw.fail("agent: resolve shard tasks: %v", err)
		return
	}
	if err := fw.write(wire.TypeAccept, wire.Accept{
		Protocol:    wire.ProtocolVersion,
		ToolVersion: a.opts.ToolVersion,
		Tasks:       len(tasks),
	}); err != nil {
		return // coordinator went away; nothing to report to
	}
	if len(tasks) == 0 {
		return // an empty shard (more shards than tasks) is complete at accept
	}

	engTasks, cfg := n.EngineInputs(tasks)
	cfg.SampleCap = assign.SampleCap
	cfg.Now = a.opts.Now
	var done atomic.Int64
	cfg.OnEvent = func(e engine.Event) {
		if e.Kind == engine.EventTaskDone {
			done.Add(1)
		}
		// A failed event write means the coordinator is gone; the request
		// context is about to cancel the engine, so just stop streaming.
		_ = fw.write(wire.TypeEvent, wire.FromEvent(e))
	}

	// Heartbeat: periodic progress snapshots on the agent's real clock (the
	// injectable engine clock is measurement, not liveness). The handler
	// waits for the goroutine before it returns: a tick that fires as the
	// shard finishes would otherwise write to a response the server has
	// already taken back.
	hbCtx, hbStop := context.WithCancel(r.Context())
	hbDone := make(chan struct{})
	defer func() {
		hbStop()
		<-hbDone
	}()
	started := time.Now()
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(a.opts.Heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				_ = fw.write(wire.TypeSnapshot, wire.Snapshot{
					Done:      int(done.Load()),
					Tasks:     len(tasks),
					ElapsedNs: int64(time.Since(started)),
				})
			}
		}
	}()

	results := engine.Run(r.Context(), engTasks, cfg)
	hbStop()
	for i, res := range results {
		if err := fw.write(wire.TypeResult, wire.FromTaskResult(i, res)); err != nil {
			return
		}
	}
}

// readBody reads one frame of the expected type from the request body.
func readBody(r *http.Request, want string, dst any) error {
	f, err := wire.ReadFrame(r.Body)
	if err != nil {
		return fmt.Errorf("read %s frame: %w", want, err)
	}
	if f.Type != want {
		return fmt.Errorf("expected a %s frame, got %s", want, f.Type)
	}
	return f.Decode(dst)
}

// ServeAgent runs an agent HTTP server on addr until ctx is cancelled, then
// shuts it down gracefully: the listener closes immediately, in-flight
// shards get a bounded drain, and whatever is still running when the drain
// expires loses its connection (which cancels its engine run). Returns the
// listen error, or nil after a clean shutdown.
func ServeAgent(ctx context.Context, addr string, opts AgentOptions) error {
	srv := &http.Server{Addr: addr, Handler: NewAgent(opts).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return fmt.Errorf("cluster: agent listen on %s: %w", addr, err)
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownDrain)
		defer cancel()
		err := srv.Shutdown(drain)
		<-errc // ListenAndServe has returned http.ErrServerClosed
		if err != nil {
			return fmt.Errorf("cluster: agent shutdown: %w", err)
		}
		return nil
	}
}
