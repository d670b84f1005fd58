// Package hot exercises the hotpath analyzer. Only functions carrying
// the //bdbench:hotpath directive are checked; coldAllocs proves the
// default is silence.
package hot

import (
	"context"
	"fmt"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
)

type cell struct {
	buf   []int
	label string
}

// hotAllocs plants one of each basic allocating construct.
//
//bdbench:hotpath
func hotAllocs(c *cell, v int, s string) {
	_ = fmt.Sprintf("%d", v) // want `hotpath: fmt\.Sprintf in hot path`
	_ = c.label + s          // want `hotpath: string concatenation allocates`
	_ = []byte(s)            // want `hotpath: \[\]byte conversion copies and allocates`
	f := func() {}           // want `hotpath: function literal in hot path`
	f()
	c.buf = append(c.buf, v) // want `hotpath: append in hot path may grow`
	_ = make([]int, 4)       // want `hotpath: make in hot path allocates`
}

// hotBoxing plants literal, goroutine and interface-boxing hazards.
//
//bdbench:hotpath
func hotBoxing(c *cell, v int) {
	sink(v)              // want `hotpath: passing int to an interface parameter boxes it`
	sink(&c.buf)         // pointers fit the interface word: no boxing
	_ = map[string]int{} // want `hotpath: map literal allocates`
	_ = []int{1}         // want `hotpath: slice literal allocates`
	go f2()              // want `hotpath: go statement in hot path`
}

// hotVariadic shows the hidden argument-slice allocation.
//
//bdbench:hotpath
func hotVariadic(vals []int) {
	variadic(1, 2) // want `hotpath: variadic call allocates its argument slice`
	variadic(vals...)
}

// hotDeadlines plants the context and timer constructors; re-arming a
// timer built elsewhere is the sanctioned idiom.
//
//bdbench:hotpath
func hotDeadlines(ctx context.Context, t *time.Timer, now time.Time) {
	_, cancel := context.WithTimeout(ctx, time.Second) // want `hotpath: context\.WithTimeout in hot path allocates a context or timer`
	cancel()
	_, stop := context.WithCancelCause(ctx) // want `hotpath: context\.WithCancelCause in hot path allocates`
	stop(nil)
	_ = time.AfterFunc(time.Second, cancel) // want `hotpath: time\.AfterFunc in hot path allocates`
	<-time.After(time.Second)               // want `hotpath: time\.After in hot path allocates`
	_ = now.After(now)                      // a method, not the constructor
	t.Reset(time.Second)
}

// hotMints plants handles minted from a label; recording through handles
// minted outside the hot path is the sanctioned idiom.
//
//bdbench:hotpath
func hotMints(c *metrics.Collector, s *metrics.Shard, op metrics.OpRef, n metrics.CounterRef) {
	c.Op("op").Observe(time.Second)          // want `hotpath: metrics\.Collector\.Op in hot path looks its label up on every call`
	c.CounterRef("records").Add(1)           // want `hotpath: metrics\.Collector\.CounterRef in hot path looks its label up`
	s.Op("op").ObserveSince(op.StartTimer()) // want `hotpath: metrics\.Shard\.Op in hot path looks its label up`
	s.CounterRef("records").Add(1)           // want `hotpath: metrics\.Shard\.CounterRef in hot path looks its label up`
	op.Observe(time.Second)
	n.Add(1)
}

// hotClean uses only the sanctioned idioms and must stay silent.
//
//bdbench:hotpath
func hotClean(c *cell, v int) {
	c.buf = append(c.buf[:0], v) // reslice hint: reuses backing storage
	const tag = "a" + "b"        // constant-folded concatenation
	_ = tag
	c.buf[0] = v
}

// hotAllowed proves //bdvet:allow composes with the directive.
//
//bdbench:hotpath
func hotAllowed(v int) {
	sink(v) //bdvet:allow hotpath -- boxing is deliberate in this test fixture
}

func coldAllocs(s string) []byte {
	return []byte(s + "!") // no directive: not a hot path
}

func sink(x interface{}) {}

func f2() {}

func variadic(xs ...int) {}
