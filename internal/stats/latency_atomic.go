package stats

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// AtomicLatencyHistogram is the multi-writer twin of LatencyHistogram: the
// same layout, every cell updated atomically, so any number of goroutines
// can Observe concurrently with each other and with Snapshot. It backs the
// metric shards (internal/metrics), one per operation label per shard, and
// pays for the ranges it touches: a page of counts exists once a value
// lands in it. The first page needed is the inline one, so a histogram that
// saw one range is one object of about 0.6 kB; each further page is
// allocated by the first value to reach it, at most pages−1 times ever.
type AtomicLatencyHistogram struct {
	dir    [pages]atomic.Pointer[page]
	inline page
	sumNs  atomic.Int64
	maxNs  atomic.Int64
	minGap atomic.Int64 // math.MaxInt64 − min, so zero means none and min rises like max
	mu     sync.Mutex   // serializes page installs only
	used   bool         // the inline page is in the directory; guarded by mu
}

// page is 32 consecutive buckets.
type page [subBuckets]atomic.Uint64

// Observe records one duration. Safe for concurrent use. Sum, max and min
// are updated before the count, so a Snapshot that sees the count also
// sees the observation inside its [min, max].
func (l *AtomicLatencyHistogram) Observe(d time.Duration) {
	d = max(d, 0)
	i := bucketIndex(uint64(d))
	p := l.dir[i>>subBucketBits].Load()
	if p == nil {
		p = l.addPage(i >> subBucketBits)
	}
	l.sumNs.Add(int64(d))
	raise(&l.maxNs, int64(d))
	raise(&l.minGap, math.MaxInt64-int64(d))
	p[i&(subBuckets-1)].Add(1)
}

// raise lifts v to at least x.
func raise(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// addPage installs page k for the first value to reach it: the inline page
// if still free, else a new one. Writers queue on the mutex rather than
// race a compare-and-swap that has every loser allocate a page to discard.
func (l *AtomicLatencyHistogram) addPage(k int) *page {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.dir[k].Load(); p != nil {
		return p
	}
	p := &l.inline
	if l.used {
		p = new(page)
	}
	l.used = true
	l.dir[k].Store(p)
	return p
}

// Snapshot folds the atomic cells into a plain LatencyHistogram, skipping
// pages never installed. It may run concurrently with writers; the result
// is then a momentary cut (the total is derived from the bucket counts so
// quantiles stay internally consistent), exact once writers have quiesced.
func (l *AtomicLatencyHistogram) Snapshot() *LatencyHistogram {
	out := &LatencyHistogram{}
	for k := range l.dir {
		p := l.dir[k].Load()
		if p == nil {
			continue
		}
		for j := range p {
			c := p[j].Load()
			out.counts[k<<subBucketBits+j] = c
			out.total += c
		}
	}
	out.sum = time.Duration(l.sumNs.Load())
	out.max = time.Duration(l.maxNs.Load())
	if out.total > 0 {
		out.min = time.Duration(math.MaxInt64 - l.minGap.Load())
	}
	return out
}
