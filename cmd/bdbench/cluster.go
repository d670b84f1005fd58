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
	heartbeat := fs.Duration("heartbeat", 0, "heartbeat period; a coordinator abandons a shard after 15 silent periods (0 = default 1s)")
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
// extra knobs are the fleet and the shard count.
func cmdCoordinate(args []string) error {
	fs := newFlagSet("coordinate")
	agents := fs.String("agents", "", "comma-separated agent base URLs, e.g. http://host1:9031,http://host2:9031")
	shards := fs.Int("shards", 0, "shard count (0 = one per agent, clamped to the task count)")
	return runScenario(fs, args, func(sc bdbench.Scenario, ro runOptions) (*bdbench.Outcome, error) {
		copts := bdbench.CoordinateOptions{
			Agents:         splitAgents(*agents),
			Shards:         *shards,
			RunOutput:      ro.out,
			SampleCapacity: ro.samples,
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
