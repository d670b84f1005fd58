// Package datagen holds the generation infrastructure shared by every data
// generator in bdbench: deterministic parallel chunk execution (the paper's
// "data generation can be paralleled and distributed to multiple machines,
// thus supporting different data generation rates") and the measurement of
// an achieved generation rate (RateProbe). Pacing to a target rate is not
// here: every paced operation sleeps with metrics.Collector.SleepUntil.
//
// Subpackages implement the concrete generators per data source: textgen,
// tablegen, graphgen, streamgen and weblog, with veracity metrics in the
// veracity subpackage and CSV serialization in formats.
package datagen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// Parallel runs chunks of work across workers goroutines, giving each chunk
// a child RNG derived from (seed, chunk index). The derivation — not the
// scheduling — determines the random stream, so output is identical for any
// worker count. The pool mirrors the execution engine's semantics: a bounded
// set of workers draining a job channel, with panics isolated into errors so
// one bad chunk fails the generation cleanly instead of crashing the
// process. The first error aborts the run: no chunk is dispatched or started
// after it is recorded, so only the chunks already running finish.
func Parallel(seed uint64, chunks, workers int, fn func(chunk int, g *stats.RNG) error) error {
	if chunks <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > chunks {
		workers = chunks
	}
	base := stats.NewRNG(seed)
	var (
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if firstErr.Load() != nil {
					continue
				}
				if err := runChunk(c, base.Split("chunk", c), fn); err != nil {
					wrapped := fmt.Errorf("datagen: chunk %d: %w", c, err)
					firstErr.CompareAndSwap(nil, &wrapped)
				}
			}
		}()
	}
	for c := 0; c < chunks && firstErr.Load() == nil; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return *err
	}
	return nil
}

// runChunk executes one chunk, converting a panic into an error so the pool
// keeps draining and the caller sees a failed generation, not a crash.
func runChunk(chunk int, g *stats.RNG, fn func(chunk int, g *stats.RNG) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(chunk, g)
}

// RateProbe measures achieved generation rate: call Add after producing
// items, then Rate for items/second since construction.
type RateProbe struct {
	mu    sync.Mutex
	count int64
	start time.Time
}

// NewRateProbe starts a probe.
func NewRateProbe() *RateProbe { return &RateProbe{start: time.Now()} } //bdvet:allow detnondet -- rate probes measure real elapsed time by design

// Add records n produced items.
func (p *RateProbe) Add(n int64) {
	p.mu.Lock()
	p.count += n
	p.mu.Unlock()
}

// Rate returns items/second since the probe started.
func (p *RateProbe) Rate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	secs := time.Since(p.start).Seconds() //bdvet:allow detnondet -- rate probes measure real elapsed time by design
	if secs <= 0 {
		return 0
	}
	return float64(p.count) / secs
}
