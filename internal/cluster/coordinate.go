package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/cluster/wire"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/scenario"
)

// The coordinator's failure policy. A bound on the run itself is the spec's
// own timeout, applied by each agent's engine as in a local run.
const (
	// retries is how many times a failed shard is re-dispatched before it
	// is declared lost. Attempt k of shard s goes to Agents[(s+k) %
	// len(Agents)], so a retry lands on a different agent whenever there
	// is one.
	retries = 2
	// backoff is the wait before a shard's first retry; it doubles per
	// attempt.
	backoff = 100 * time.Millisecond
	// silentPeriods is how many of the agent's heartbeat periods a shard's
	// response stream may stay silent — no byte of an event, snapshot or
	// result frame — before the attempt is abandoned. The period is the one
	// the agent announces in its accept frame, so from the accept on the two
	// ends cannot disagree; until it arrives the period is DefaultHeartbeat.
	silentPeriods = 15
	// minSilence floors that bound: a shorter wait would take the Go
	// scheduler's delay in running the stream's reader, or the agent's
	// ticker, for an agent's silence (an agent at a 20 µs heartbeat lost
	// shards under -race at a 300 µs bound).
	minSilence = 100 * time.Millisecond
)

// Options configures Coordinate: the agent fleet, plus the scenario options
// forwarded to the run pipeline.
type Options struct {
	// Agents lists the agent base URLs ("http://host:port"). Required.
	Agents []string
	// Shards is how many slices the task list splits into (default:
	// len(Agents), clamped to the task count). Shards beyond len(Agents)
	// share agents round-robin.
	Shards int

	// The scenario pass-throughs (see scenario.Options).
	Registry       *scenario.Registry
	OnEvent        func(engine.Event)
	RunOutput      string
	SampleCapacity int
	ToolVersion    string
	Now            func() time.Time
}

// Coordinate runs the scenario's five-step process locally with Step 4
// distributed: the resolved tasks are partitioned into shards (global task
// index i belongs to shard i mod Shards), each shard is dispatched to an
// agent over the wire protocol, and the per-shard results are reassembled
// in global task order before the ordinary Analysis step and artifact
// encoding run. Planning, probes, analysis and the run blob are the same
// code a local run uses — for a (spec, seed)-deterministic scenario the
// artifact is byte-identical to a single-process run's.
//
// A shard whose every attempt fails is declared lost: its tasks are
// reported failed, and the outcome (and blob metadata) carries a degraded
// marker naming the shard — the run completes degraded rather than hanging
// or silently dropping tasks. A cancelled context aborts the run with the
// context's error instead.
func Coordinate(ctx context.Context, spec scenario.Spec, opts Options) (*scenario.Outcome, error) {
	if len(opts.Agents) == 0 {
		return nil, errors.New("cluster: coordinate: no agents")
	}
	c := &coordinator{opts: opts, client: &http.Client{}}
	return scenario.Run(ctx, spec, scenario.Options{
		Registry:       opts.Registry,
		OnEvent:        opts.OnEvent,
		RunOutput:      opts.RunOutput,
		SampleCapacity: opts.SampleCapacity,
		ToolVersion:    opts.ToolVersion,
		Now:            opts.Now,
		Execute:        c.execute,
	})
}

type coordinator struct {
	opts Options
	// client dispatches shards to agents. An attempt is bounded by the
	// heartbeat watchdog, not the client.
	client *http.Client
	// emitMu serializes event forwarding across shard readers, matching the
	// engine's contract that OnEvent needs no locking of its own.
	emitMu sync.Mutex
}

// execute is the distributed Executor: partition, dispatch with retry,
// reassemble.
func (c *coordinator) execute(ctx context.Context, n scenario.Spec, tasks []engine.Task, cfg engine.Config) ([]engine.TaskResult, []string, error) {
	digest, err := scenario.SpecDigest(n)
	if err != nil {
		return nil, nil, err
	}
	rawSpec, err := json.Marshal(n)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: marshal spec: %w", err)
	}
	shards := c.opts.Shards
	if shards <= 0 {
		shards = len(c.opts.Agents)
	}
	if shards > len(tasks) {
		shards = len(tasks)
	}
	if shards < 1 {
		shards = 1
	}
	// Every shard gets the same handshake and the same spec bytes; only the
	// shard number differs.
	hello := wire.Hello{Protocol: wire.ProtocolVersion, SpecDigest: digest}
	assign := wire.Assign{Spec: rawSpec, Shards: shards, SampleCap: cfg.SampleCap}
	results := make([]engine.TaskResult, len(tasks))
	notes := make([]string, shards) // slot per shard keeps degraded order deterministic
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		indices := scenario.ShardIndices(len(tasks), s, shards)
		assign.Shard = s
		wg.Add(1)
		go func(assign wire.Assign, indices []int) {
			defer wg.Done()
			s := assign.Shard
			if err := c.dispatch(ctx, hello, assign, indices, results); err != nil {
				notes[s] = fmt.Sprintf("shard %d/%d lost after %d attempt(s): %v", s, shards, 1+retries, err)
				for _, gi := range indices {
					results[gi] = engine.TaskResult{
						Workload: tasks[gi].Workload.Name(),
						Category: tasks[gi].Category,
						Err:      fmt.Errorf("cluster: shard %d/%d lost: %w", s, shards, err),
					}
				}
			}
		}(assign, indices)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var degraded []string
	for _, note := range notes {
		if note != "" {
			degraded = append(degraded, note)
		}
	}
	return results, degraded, nil
}

// dispatch runs one shard to completion: try an agent, and on failure back
// off (doubling) and rotate to the next until the attempts run out. Slots in
// results are owned exclusively by this shard, so no locking is needed; a
// failed attempt's partial writes are overwritten by the attempt that
// succeeds (or by the lost-shard fabrication).
func (c *coordinator) dispatch(ctx context.Context, hello wire.Hello, assign wire.Assign, indices []int, results []engine.TaskResult) error {
	wait := backoff
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
			wait *= 2
		}
		agent := c.opts.Agents[(assign.Shard+attempt)%len(c.opts.Agents)]
		err := c.runShard(ctx, agent, hello, assign, indices, results)
		if err == nil {
			return nil
		}
		lastErr = fmt.Errorf("%s: %w", agent, err)
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// runShard is one dispatch attempt against one agent. Events stream through
// live (shard-local task indices remapped to global), so a retried shard
// re-emits its events: distributed progress events are at-least-once.
func (c *coordinator) runShard(ctx context.Context, agentURL string, hello wire.Hello, assign wire.Assign, indices []int, results []engine.TaskResult) error {
	// The watchdog cancels the attempt when the agent stays silent for
	// silentPeriods heartbeats. It runs from the request until the response
	// headers, then only while a read waits for the agent's bytes (stream),
	// so the coordinator's own decoding never counts as the agent's silence.
	attemptCtx, abandon := context.WithCancel(ctx)
	defer abandon()
	watchdog := time.AfterFunc(silentPeriods*DefaultHeartbeat, abandon)
	defer watchdog.Stop()

	var body bytes.Buffer
	if err := wire.WriteFrame(&body, wire.TypeHello, hello); err != nil {
		return err
	}
	if err := wire.WriteFrame(&body, wire.TypeAssign, assign); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, agentURL+ShardPath, bytes.NewReader(body.Bytes()))
	if err != nil {
		return fmt.Errorf("build shard request: %w", err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch shard: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dispatch shard: agent answered %s", resp.Status)
	}

	stream := &watchedReader{r: resp.Body, watchdog: watchdog, silence: silentPeriods * DefaultHeartbeat}
	accept, err := readAccept(stream)
	if err != nil {
		return err
	}
	if accept.Protocol != wire.ProtocolVersion {
		return fmt.Errorf("agent speaks protocol %d, coordinator %d", accept.Protocol, wire.ProtocolVersion)
	}
	if accept.Tasks != len(indices) {
		return fmt.Errorf("agent resolved %d task(s) for a shard owning %d — mismatched workload registries?", accept.Tasks, len(indices))
	}
	// A period so long that silentPeriods of it overflow is refused like a
	// non-positive one.
	if accept.Heartbeat <= 0 || accept.Heartbeat > math.MaxInt64/silentPeriods {
		return fmt.Errorf("agent announced a heartbeat of %v", accept.Heartbeat)
	}
	stream.silence = max(silentPeriods*accept.Heartbeat, minSilence)

	got := make([]bool, len(indices))
	received := 0
	for received < len(indices) {
		f, err := wire.ReadFrame(stream)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("stream ended after %d of %d result(s)", received, len(indices))
			}
			if ctxErr := attemptCtx.Err(); ctxErr != nil && ctx.Err() == nil {
				err = fmt.Errorf("attempt abandoned (%v): %w", ctxErr, err)
			}
			return err
		}
		switch f.Type {
		case wire.TypeEvent:
			var we wire.Event
			if err := f.Decode(&we); err != nil {
				return err
			}
			if c.opts.OnEvent != nil && we.Task >= 0 && we.Task < len(indices) {
				e := we.ToEvent()
				e.Task = indices[we.Task]
				c.emitMu.Lock()
				c.opts.OnEvent(e)
				c.emitMu.Unlock()
			}
		case wire.TypeSnapshot:
			// Liveness is the content; its bytes ended the wait in stream.
		case wire.TypeResult:
			var wr wire.Result
			if err := f.Decode(&wr); err != nil {
				return err
			}
			if wr.Task < 0 || wr.Task >= len(indices) {
				return fmt.Errorf("result for task %d outside the shard's %d task(s)", wr.Task, len(indices))
			}
			if got[wr.Task] {
				return fmt.Errorf("duplicate result for shard-local task %d", wr.Task)
			}
			got[wr.Task] = true
			received++
			results[indices[wr.Task]] = wr.ToTaskResult()
		case wire.TypeError:
			var we wire.Error
			if err := f.Decode(&we); err != nil {
				return err
			}
			return errors.New(we.Message)
		default:
			return fmt.Errorf("unexpected %s frame", f.Type)
		}
	}
	return nil
}

// watchedReader arms watchdog for silence only while a Read waits for the
// agent's bytes: any byte that arrives ends the wait, so a large frame in
// transfer is not silence, and the time between reads is not either.
type watchedReader struct {
	r        io.Reader
	watchdog *time.Timer
	silence  time.Duration
}

func (w *watchedReader) Read(p []byte) (int, error) {
	w.watchdog.Reset(w.silence)
	n, err := w.r.Read(p)
	w.watchdog.Stop()
	return n, err
}

// readAccept reads and validates the stream's first frame.
func readAccept(r io.Reader) (wire.Accept, error) {
	f, err := wire.ReadFrame(r)
	if err != nil {
		return wire.Accept{}, fmt.Errorf("read accept: %w", err)
	}
	switch f.Type {
	case wire.TypeAccept:
		var a wire.Accept
		if err := f.Decode(&a); err != nil {
			return wire.Accept{}, err
		}
		return a, nil
	case wire.TypeError:
		var we wire.Error
		if err := f.Decode(&we); err != nil {
			return wire.Accept{}, err
		}
		return wire.Accept{}, errors.New(we.Message)
	default:
		return wire.Accept{}, fmt.Errorf("expected an accept frame, got %s", f.Type)
	}
}
