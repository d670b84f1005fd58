package opcompose

import (
	"fmt"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

var benchSink uint64

// dispatchFixture is the composed workload's per-operation hot path in
// isolation: a one-phase pattern over ops compiled on a fixed clock (so
// time-source cost is excluded), a resident 256-record window, and a
// key-value substrate holding the whole key space so put overwrites instead
// of growing the map. step runs one operation exactly as Run does — phase
// dispatch, weighted draw, clocking, the op body, the observation appended
// to a buffer with room for n — and returns how many the buffer holds.
func dispatchFixture(tb testing.TB, n int, ops ...OpWeight) (step func() int) {
	w, err := Compile(Pattern{Name: "bench", Ops: ops, OpsPerScale: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cw := w.(*composed)
	base := time.Unix(1000, 0)
	cw.SetClock(func() time.Time { return base })
	g := stats.NewRNG(42)
	records := make([]string, 256)
	for i := range records {
		records[i] = fmt.Sprintf("host%d - - [01/Mar/2014:00:00:%02d +0000] \"GET /%s HTTP/1.1\" 200 %d",
			g.IntN(64), i%60, g.RandomWord(3, 10), g.IntN(4096))
	}
	octx := &OpContext{RNG: g, Records: records, Store: make(map[uint64]string, keySpace)}
	for k := uint64(0); k < keySpace; k++ {
		octx.Store[k] = records[k%256]
	}
	ph := &cw.phases[0]
	buf := make([]obs, 0, n)
	return func() int {
		j := 0
		if ph.alias != nil {
			j = ph.alias.Sample(g)
		}
		start := cw.now()
		fp := ph.ops[j].Apply(octx)
		buf = append(buf, obs{op: int32(j), dur: cw.now().Sub(start)})
		benchSink ^= fp
		return len(buf)
	}
}

// BenchmarkComposedDispatch prices one composed operation (see
// dispatchFixture) over a filter/aggregate/scan mix. For looking;
// TestComposedOpsZeroAlloc holds its allocs/op column at 0.
func BenchmarkComposedDispatch(b *testing.B) {
	step := dispatchFixture(b, b.N,
		OpWeight{Op: "filter"}, OpWeight{Op: "aggregate", Weight: 2}, OpWeight{Op: "scan"})
	b.ReportAllocs()
	b.ResetTimer()
	buffered := 0
	for i := 0; i < b.N; i++ {
		buffered = step()
	}
	if buffered != b.N {
		b.Fatal("observation buffer lost entries")
	}
}

// TestComposedOpsZeroAlloc: the composed dispatch loop allocates nothing per
// operation — over the weighted draw across the builtin mix, and over each
// builtin's body alone so a failure names the op. join is left out: its
// probe-side key set is a map built per call, which is the operation's own
// work rather than harness garbage (3 allocs/op).
func TestComposedOpsZeroAlloc(t *testing.T) {
	const runs = 1000
	check := func(name string, ops ...OpWeight) {
		t.Run(name, func(t *testing.T) {
			// AllocsPerRun calls step once to warm up, then runs times.
			step := dispatchFixture(t, runs+1, ops...)
			allocs := testing.AllocsPerRun(runs, func() { step() })
			if raceflag.Enabled {
				t.Skipf("allocation counts not asserted under -race (measured %.1f)", allocs)
			}
			if allocs != 0 {
				t.Errorf("%.1f allocs/op in the composed dispatch loop, want 0", allocs)
			}
		})
	}
	var mix []OpWeight
	for i, op := range primitives {
		if op.Name == "join" {
			continue
		}
		ow := OpWeight{Op: op.Name, Weight: float64(i + 1)}
		check(ow.Op, ow)
		mix = append(mix, ow)
	}
	check("mix", mix...)
}
