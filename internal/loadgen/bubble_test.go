//go:build goexperiment.synctest

package loadgen

import (
	"context"
	"math"
	"testing"
	"testing/synctest"
	"time"
)

// Tests in this file run the unchanged wall-clock code inside a
// testing/synctest bubble, where time.Now, timers and sleeps read a virtual
// clock that advances only when every goroutine in the bubble is durably
// blocked. The harness's own timers then cost nothing and add no noise, so
// a reported latency can be held to a known answer. They need the
// synctest experiment and run apart from the default build:
//
//	GOEXPERIMENT=synctest go test -run Bubble ./...
//
// Known limits of the bubble:
//   - A goroutine waiting on a sync.Mutex is not durably blocked, so the
//     clock stops while one waits on a lock held by a sleeper: a bubble test
//     serializes with a channel instead.
//   - Network I/O is not durably blocking either, so anything over loopback
//     TCP stays on the wall clock.
//   - A spin-wait never advances the clock: it hangs the bubble.

// TestBubbleOpenLoopMatchesMD1 offers Poisson arrivals to one server that
// takes exactly 500 µs per request, guarded by a one-slot channel so that
// requests queue first come, first served: an M/D/1 queue. Its mean
// response time is known, S + ρS/(2(1−ρ)) at utilisation ρ, and the
// reported request latency — measured from each intended start, queueing
// included — must be within 2 % of it at light, medium and heavy load.
func TestBubbleOpenLoopMatchesMD1(t *testing.T) {
	const service = 500 * time.Microsecond
	for _, rho := range []float64{0.3, 0.5, 0.8} {
		synctest.Run(func() {
			server := make(chan struct{}, 1)
			st, err := Run(context.Background(), Options{
				Rate:     rho / service.Seconds(),
				Arrival:  Poisson{},
				Duration: 20 * time.Second,
				Seed:     2014,
			}, func(context.Context) error {
				server <- struct{}{}
				time.Sleep(service)
				<-server
				return nil
			})
			if err != nil {
				t.Fatalf("ρ=%.1f: %v", rho, err)
			}
			want := service.Seconds() * (1 + rho/(2*(1-rho)))
			got := st.Latency.Mean.Seconds()
			rel := got/want - 1
			t.Logf("ρ=%.1f: %d requests, mean %v, M/D/1 %v (%+.2f%%)",
				rho, st.Latency.Count, st.Latency.Mean, time.Duration(want*1e9), 100*rel)
			if math.Abs(rel) > 0.02 {
				t.Errorf("ρ=%.1f: the mean request latency is %+.2f%% off M/D/1's, want within 2%%", rho, 100*rel)
			}
		})
	}
}
