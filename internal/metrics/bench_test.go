package metrics

import (
	"testing"
	"time"
)

// BenchmarkCollectorRecord measures the bare record path through a
// pre-resolved OpRef — the baseline the sampled variant is judged against.
// TestOpRefZeroAlloc holds its allocs/op at 0.
func BenchmarkCollectorRecord(b *testing.B) {
	c := NewCollector("bench")
	op := c.Op("op")
	op.Observe(time.Microsecond) // first use allocates the cell's state; keep it untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Observe(time.Microsecond)
	}
}

// BenchmarkCollectorSampledRecord measures the record path with raw sample
// capture enabled: histogram adds plus a slot claim and two atomic stores
// into the cell's buffer. The allocs/op column must stay at 0 — the
// tentpole's promise that persisting full latency streams costs no
// allocation on the hot path. (The buffer overflows early in the run and
// keeps counting drops, so the steady state measured here is the full-buffer
// path; BenchmarkCollectorSampledRecordFilling covers the filling one.)
func BenchmarkCollectorSampledRecord(b *testing.B) {
	c := NewCollector("bench")
	c.EnableSampling(1 << 10)
	op := c.Op("op")
	op.Observe(time.Microsecond) // first use allocates the cell's state; keep it untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Observe(time.Microsecond)
	}
}

// BenchmarkCollectorSampledRecordFilling keeps the buffer from overflowing
// (capacity b.N+1) so the measured path is the one that actually stores
// samples — growth steps included: the buffer's ⌈log2(N/64)⌉ segment
// allocations happen inside the timed loop, which is why B/op reads 16 (a
// slot) and allocs/op still rounds to 0.
func BenchmarkCollectorSampledRecordFilling(b *testing.B) {
	c := NewCollector("bench")
	c.EnableSampling(b.N + 1)
	op := c.Op("op")
	op.Observe(time.Microsecond) // first use allocates the cell's state; keep it untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Observe(time.Microsecond)
	}
}

// BenchmarkCollectorSnapshotWithSamples measures the drain cost Snapshot
// pays for capture — off the record path by design, priced here so it stays
// visible.
func BenchmarkCollectorSnapshotWithSamples(b *testing.B) {
	c := NewCollector("bench")
	c.EnableSampling(1 << 12)
	op := c.Op("op")
	for i := 0; i < 1<<12; i++ {
		op.Observe(time.Microsecond)
	}
	c.SetElapsed(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Snapshot()
		if len(r.Samples) != 1 {
			b.Fatal("lost the stream")
		}
	}
}
