package bdbench

import (
	"context"
	"net/http"

	"github.com/bdbench/bdbench/internal/cluster"
)

// Distributed mode: a coordinator partitions a scenario's resolved tasks
// across agents and merges their results into the same Outcome — and, with
// CoordinateOptions.RunOutput, the same run-blob bytes — a single process
// would produce for a deterministic (spec, seed). See docs/DISTRIBUTED.md
// for the wire protocol, partitioning rules and failure semantics.

// AgentOptions configures a benchmark agent: its registry, its run clock,
// and its heartbeat period — the one liveness setting of a distributed run,
// which the agent announces to the coordinator at every shard's handshake.
type AgentOptions = cluster.AgentOptions

// CoordinateOptions configures a coordinated distributed run: the agent
// fleet, the shard count, and the usual scenario options. The failure
// policy is fixed: 2 retries with a doubling backoff from 100ms, and an
// attempt abandoned after 15 silent heartbeat periods of its agent (never
// under 100ms; 15s until the agent has accepted the shard). A bound
// on the run is the spec's own timeout, as in a local run.
type CoordinateOptions = cluster.Options

// ServeAgent runs a benchmark agent on addr until ctx is cancelled, then
// shuts down gracefully (in-flight shards get a bounded drain). Agents are
// stateless between requests; one agent can serve any number of
// coordinators.
func ServeAgent(ctx context.Context, addr string, opts AgentOptions) error {
	return cluster.ServeAgent(ctx, addr, opts)
}

// AgentHandler returns the agent's HTTP handler without binding a listener
// — the embedding point for callers that already run an HTTP server (and
// for httptest-based fault injection).
func AgentHandler(opts AgentOptions) http.Handler {
	return cluster.NewAgent(opts).Handler()
}

// Coordinate executes the scenario with its Execution step distributed
// across opts.Agents: tasks are partitioned into shards (global task index
// i mod shard count), dispatched over the wire protocol with retry and
// backoff, and reassembled in task order before the ordinary analysis and
// artifact encoding. A shard no agent can complete makes the run degraded —
// its tasks report failed and Outcome.Degraded (and the blob's metadata)
// says why — rather than hanging or silently dropping work.
func Coordinate(ctx context.Context, s Scenario, opts CoordinateOptions) (*Outcome, error) {
	if opts.ToolVersion == "" {
		opts.ToolVersion = Version
	}
	return cluster.Coordinate(ctx, s, opts)
}
