package loadgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
)

// BenchmarkSchedule measures arrival-schedule materialization per process
// — the fixed cost a run pays before the first dispatch (100k arrivals
// per iteration at 10k ops/s over 10s).
func BenchmarkSchedule(b *testing.B) {
	for _, name := range Processes() {
		p, _ := ParseProcess(name)
		p = withTrace(p)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched := Schedule(p, 10000, 10*time.Second, uint64(i))
				if len(sched) == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkDispatchSteadyState measures the per-operation hot path in
// isolation — execOne through its three pre-resolved OpRefs, on a
// fixed clock so time-source cost is excluded. This is the zero-allocation
// contract's loadgen half: the allocs/op column must stay at 0
// (TestDispatchSteadyStateZeroAlloc holds it there).
func BenchmarkDispatchSteadyState(b *testing.B) {
	c := metrics.NewCollector("bench")
	base := time.Unix(1000, 0)
	now := func() time.Time { return base }
	r := newRunState(context.Background(), func(context.Context) error { return nil }, c, now)
	r.execOne(0) // warm the substrate labels
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.execOne(time.Millisecond)
	}
}

// BenchmarkDispatchOverhead measures the driver's per-operation cost with
// a no-op operation at increasing offered rates over a fixed 50ms window:
// the gap between offered and achieved is pure load-generator overhead.
func BenchmarkDispatchOverhead(b *testing.B) {
	for _, rate := range []float64{1000, 10000} {
		b.Run(fmt.Sprintf("rate=%.0f", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := Run(context.Background(), Options{
					Rate: rate, Duration: 50 * time.Millisecond, Seed: uint64(i),
				}, func(context.Context) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(st.Achieved/st.Offered, "achieved/offered")
			}
		})
	}
}
