package stats

import (
	"sync/atomic"
	"time"
)

// AtomicLatencyHistogram is the multi-writer twin of LatencyHistogram: the
// same fixed exponential bucket layout, but every cell is updated with
// atomic operations, so any number of goroutines can Observe concurrently
// with each other and with Snapshot, without locks. It is the backing store
// of the per-worker metric shards (internal/metrics); the fixed layout makes
// draining it a straight counts/sum/max fold into a plain LatencyHistogram.
type AtomicLatencyHistogram struct {
	counts [buckets]atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// Observe records one duration. Safe for concurrent use.
func (l *AtomicLatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	l.counts[bucketIndex(us)].Add(1)
	l.sumNs.Add(int64(d))
	for {
		cur := l.maxNs.Load()
		if int64(d) <= cur || l.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Snapshot folds the atomic cells into a plain LatencyHistogram. It may run
// concurrently with writers; the result is then a momentary cut (the total
// is derived from the bucket counts so quantiles stay internally
// consistent), exact once writers have quiesced.
func (l *AtomicLatencyHistogram) Snapshot() *LatencyHistogram {
	out := &LatencyHistogram{}
	var total uint64
	for i := range l.counts {
		c := l.counts[i].Load()
		out.counts[i] = c
		total += c
	}
	out.total = total
	out.sum = time.Duration(l.sumNs.Load())
	out.max = time.Duration(l.maxNs.Load())
	return out
}
