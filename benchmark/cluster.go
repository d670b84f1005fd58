package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	bdbench "github.com/bdbench/bdbench"
)

// loopback is a fleet of in-process agents on loopback HTTP servers, each
// behind a middleware that counts the bytes crossing the wire and, in a
// traced run, records a span around the handler.
type loopback struct {
	servers  []*httptest.Server
	rec      *Recorder
	bytes    atomic.Int64
	requests atomic.Int64

	mu sync.Mutex
	// parent is the context of the Coordinate call in flight. An agent's
	// request context does not descend from it, so the middleware adopts its
	// span by hand.
	parent context.Context
}

// newLoopback starts n agents. With a recorder, the agents resolve
// workloads from a registry whose every workload records a span around its
// body — the agents have no Execute seam to wrap tasks at.
func newLoopback(rec *Recorder, n int) *loopback {
	l := &loopback{rec: rec, parent: context.Background()}
	opts := bdbench.AgentOptions{}
	if rec != nil {
		opts.Registry = tracedRegistry(rec)
	}
	for i := 0; i < n; i++ {
		l.servers = append(l.servers, httptest.NewServer(l.middleware(bdbench.AgentHandler(opts))))
	}
	return l
}

func tracedRegistry(rec *Recorder) *bdbench.Registry {
	reg := bdbench.NewRegistry()
	for _, w := range bdbench.DefaultRegistry().Workloads() {
		// Names are unique in the default registry, so this cannot fail.
		_ = reg.RegisterWorkload(tracedWorkload{Workload: w, rec: rec})
	}
	return reg
}

// begin makes ctx, the context of a Coordinate call about to start, the
// parent of the agents' spans, and zeroes the wire counters.
func (l *loopback) begin(ctx context.Context) {
	l.mu.Lock()
	l.parent = ctx
	l.mu.Unlock()
	l.bytes.Store(0)
	l.requests.Store(0)
}

func (l *loopback) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.requests.Add(1)
		l.mu.Lock()
		parent := l.parent
		l.mu.Unlock()
		ctx, end := l.rec.Start(Adopt(r.Context(), parent), "cluster.agent", "")
		defer end()
		r = r.WithContext(ctx)
		r.Body = &countingBody{ReadCloser: r.Body, n: &l.bytes}
		next.ServeHTTP(&countingWriter{ResponseWriter: w, n: &l.bytes}, r)
	})
}

func (l *loopback) urls() []string {
	out := make([]string, len(l.servers))
	for i, s := range l.servers {
		out[i] = s.URL
	}
	return out
}

func (l *loopback) close() {
	for _, s := range l.servers {
		s.Close()
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingWriter counts response bytes. The agent streams frames and
// flushes after each, so Flush must stay reachable.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
