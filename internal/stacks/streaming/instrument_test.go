package streaming

import (
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
)

// TestInstrumentRecordsStageWalls: an instrumented pipeline records one wall
// time per stage, labeled by the stage name.
func TestInstrumentRecordsStageWalls(t *testing.T) {
	gen := streamgen.Generator{EventsPerSec: 100000, KeySpace: 10}
	events := gen.Generate(stats.NewRNG(2), 2000)
	c := metrics.NewCollector("stream")
	eng := New().Instrument(c)
	res := eng.Run(events,
		MapStage{Label: "id", Fn: func(m Msg) Msg { return m }},
		TumblingWindow{Size: 100 * time.Millisecond},
	)
	if res.In != 2000 {
		t.Fatalf("lost events: %d", res.In)
	}
	c.SetElapsed(1)
	counts := map[string]uint64{}
	for _, op := range c.Snapshot().Ops {
		counts[op.Op] = op.Count
	}
	if counts["stage:map:id"] != 1 {
		t.Fatalf("map stage observations %d, want 1 (ops: %v)", counts["stage:map:id"], counts)
	}
	if counts["stage:tumbling-window"] != 1 {
		t.Fatalf("window stage observations %d, want 1 (ops: %v)", counts["stage:tumbling-window"], counts)
	}
}
