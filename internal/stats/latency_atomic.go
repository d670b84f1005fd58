package stats

import (
	"math"
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
// allocated by the first value to reach it, and only writers that race that
// value there allocate one they then drop (see addPage).
type AtomicLatencyHistogram struct {
	dir    [pages]atomic.Pointer[page]
	inline page
	sumNs  atomic.Int64
	maxNs  atomic.Int64
	minGap atomic.Int64 // math.MaxInt64 − min, so zero means none and min rises like max
	used   atomic.Bool  // the inline page is claimed by a writer or in the directory
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
// if no writer has claimed it, else a new one. Writers race a
// compare-and-swap on the directory entry, so none waits on another that
// is descheduled mid-install. A loser drops its new page, or gives the
// inline page back, and takes the winner's: at most one 256 B page lost per
// racing writer, and only while page k is first reached.
func (l *AtomicLatencyHistogram) addPage(k int) *page {
	p := &l.inline
	if !l.used.CompareAndSwap(false, true) {
		p = new(page)
	}
	if l.dir[k].CompareAndSwap(nil, p) {
		return p
	}
	if p == &l.inline {
		l.used.Store(false)
	}
	return l.dir[k].Load()
}

// Snapshot returns the atomic cells as a plain LatencyHistogram (see AddTo).
func (l *AtomicLatencyHistogram) Snapshot() *LatencyHistogram {
	out := &LatencyHistogram{}
	l.AddTo(out)
	return out
}

// AddTo folds the atomic cells into dst, as dst.Merge(l.Snapshot()) would
// without the dense copy: it reads only the pages installed. It returns how
// many observations it added, and adds nothing when that is none. It may run
// concurrently with writers; what it adds is then a momentary cut (the total
// is derived from the bucket counts so quantiles stay internally
// consistent), exact once writers have quiesced.
func (l *AtomicLatencyHistogram) AddTo(dst *LatencyHistogram) uint64 {
	var n uint64
	for k := range l.dir {
		p := l.dir[k].Load()
		if p == nil {
			continue
		}
		for j := range p {
			c := p[j].Load()
			dst.counts[k<<subBucketBits+j] += c
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	dst.sum += time.Duration(l.sumNs.Load())
	dst.max = max(dst.max, time.Duration(l.maxNs.Load()))
	if lo := time.Duration(math.MaxInt64 - l.minGap.Load()); dst.total == 0 || lo < dst.min {
		dst.min = lo
	}
	dst.total += n
	return n
}
