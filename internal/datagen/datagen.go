// Package datagen holds the generation infrastructure shared by every data
// generator in bdbench: deterministic parallel chunk execution (the paper's
// "data generation can be paralleled and distributed to multiple machines,
// thus supporting different data generation rates") and token-bucket rate
// control (the paper's explicit generation-rate knob).
//
// Subpackages implement the concrete generators per data source: textgen,
// tablegen, graphgen, streamgen, weblog, resume and media, with veracity
// metrics in the veracity subpackage and serialization in formats.
package datagen

import (
	"fmt"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// Parallel runs chunks of work across workers goroutines, giving each chunk
// a child RNG derived from (seed, chunk index). The derivation — not the
// scheduling — determines the random stream, so output is identical for any
// worker count. The pool mirrors the execution engine's semantics: a bounded
// set of workers draining a job channel, with panics isolated into errors so
// one bad chunk fails the generation cleanly instead of crashing the
// process. The first error aborts the run (remaining chunks may still
// execute but their results should be discarded by the caller).
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
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if err := runChunk(c, base.Split("chunk", c), fn); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("datagen: chunk %d: %w", c, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for c := 0; c < chunks; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	return firstErr
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

// TokenBucket is a classic token-bucket rate limiter used to pace data
// generation and stream emission at a target rate.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Time
	// now and sleep are injectable for tests.
	now   func() time.Time
	sleep func(time.Duration)
}

// NewTokenBucket returns a bucket refilling at rate tokens/second with the
// given burst capacity (clamped to at least 1). A rate <= 0 disables
// limiting.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		rate:   rate,
		burst:  burst,
		tokens: burst,
		now:    time.Now, //bdvet:allow detnondet -- production default for the injected clock; tests override via SetClock
		sleep:  time.Sleep,
	}
}

// SetClock overrides the time source and sleeper; tests use a virtual clock.
func (tb *TokenBucket) SetClock(now func() time.Time, sleep func(time.Duration)) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.now = now
	tb.sleep = sleep
	tb.last = time.Time{}
}

// Take blocks until n tokens are available and consumes them. It returns the
// time spent waiting.
func (tb *TokenBucket) Take(n float64) time.Duration {
	if tb.rate <= 0 {
		return 0
	}
	tb.mu.Lock()
	now := tb.now()
	if tb.last.IsZero() {
		tb.last = now
	}
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
	var wait time.Duration
	if tb.tokens < n {
		deficit := n - tb.tokens
		wait = time.Duration(deficit / tb.rate * float64(time.Second))
	}
	tb.tokens -= n
	sleep := tb.sleep
	tb.mu.Unlock()
	if wait > 0 {
		sleep(wait)
	}
	return wait
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
