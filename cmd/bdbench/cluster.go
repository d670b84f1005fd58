package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	bdbench "github.com/bdbench/bdbench"
)

// cmdAgent runs a benchmark agent: an HTTP server executing scenario shards
// dispatched by `bdbench coordinate`. The agent is stateless — everything a
// shard needs arrives in its assignment — so any number of coordinators can
// share one agent, and a restarted agent needs no recovery.
func cmdAgent(args []string) error {
	fs := newFlagSet("agent")
	listen := fs.String("listen", "127.0.0.1:9031", "address to serve shard dispatches on")
	heartbeat := fs.Duration("heartbeat", 0, "progress-snapshot period (0 = default 1s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stderr, "agent: serving shards on %s (bdbench %s); interrupt to stop\n", *listen, bdbench.Version)
	return bdbench.ServeAgent(ctx, *listen, bdbench.AgentOptions{Heartbeat: *heartbeat})
}

// cmdCoordinate runs a scenario with its Execution step distributed across
// agents. Selection, reporting and artifact flags match `bdbench run`; the
// extra knobs are the fleet and the failure policy.
func cmdCoordinate(args []string) error {
	fs := newFlagSet("coordinate")
	agents := fs.String("agents", "", "comma-separated agent base URLs, e.g. http://host1:9031,http://host2:9031")
	shards := fs.Int("shards", 0, "shard count (0 = one per agent, clamped to the task count)")
	retries := fs.Int("retries", 0, "re-dispatches per failed shard (0 = default 2, negative = none)")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-dispatch-attempt deadline (0 = none)")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 0, "per-attempt stream silence bound (0 = default 15s)")
	backoff := fs.Duration("backoff", 0, "wait before a shard's first retry, doubling per attempt (0 = default 100ms)")
	return runScenario(fs, args, func(sc bdbench.Scenario, ro runOptions) (*bdbench.Outcome, error) {
		copts := bdbench.CoordinateOptions{
			Agents:           splitAgents(*agents),
			Shards:           *shards,
			Retries:          *retries,
			ShardTimeout:     *shardTimeout,
			HeartbeatTimeout: *heartbeatTimeout,
			Backoff:          *backoff,
			RunOutput:        ro.out,
			SampleCapacity:   ro.samples,
		}
		if ro.progress {
			copts.OnEvent = printEvent
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return bdbench.Coordinate(ctx, sc, copts)
	})
}

// splitAgents parses the -agents list, tolerating blanks and trailing
// slashes (the wire path is appended to each base URL).
func splitAgents(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}
