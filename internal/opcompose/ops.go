package opcompose

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/bdbench/bdbench/internal/stats"
)

// opWindow is the record-window size of the windowed primitives (scan,
// filter, aggregate, join, transform): each execution touches this many
// corpus records starting at a seeded position.
const opWindow = 64

// keySpace bounds the key-value substrate keys the put/get primitives draw
// from; small enough that a mixed put/get stream sees real hits.
const keySpace = 1 << 14

// OpContext is the execution context one operation runs in. Everything in
// it is deterministic per chunk: the RNG derives from (seed, chunk index),
// Records is the generated corpus split into lines, and Store is a
// chunk-local key-value substrate shared by the chunk's put/get stream —
// chunk-local so chunks stay independent and worker count cannot change a
// single output value.
type OpContext struct {
	// RNG is the chunk's seeded generator; operations draw positions, keys
	// and probes from it.
	RNG *stats.RNG
	// Records is the corpus, one record per line.
	Records []string
	// Store is the chunk-local key-value substrate for put/get.
	Store map[uint64]string
}

// Operation is one registered primitive: Apply executes it once against
// the context and returns a fingerprint — a value derived only from the
// context's deterministic state, folded into the composed workload's
// pattern digest so cross-worker and cross-machine runs can prove they
// computed the same thing.
type Operation struct {
	Name  string
	Apply func(*OpContext) uint64
}

// primitives is the pattern vocabulary in canonical presentation order:
// the BigOP-style abstract operations (arXiv:1401.6628) a pattern mixes
// over a named corpus instead of enumerating workloads. The set is
// deliberately small — the paper's argument is that a handful of
// primitives spans the behavior space of big-data processing.
var primitives = []Operation{
	{Name: "filter", Apply: opFilter},       // the window records matching a probe
	{Name: "aggregate", Apply: opAggregate}, // group a window, fold per-group summaries
	{Name: "join", Apply: opJoin},           // match the keys of two windows
	{Name: "scan", Apply: opScan},           // read a window sequentially
	{Name: "transform", Apply: opTransform}, // map every window record to a derived value
	{Name: "put", Apply: opPut},             // write one record into the key-value substrate
	{Name: "get", Apply: opGet},             // read one key from the key-value substrate
}

var (
	opsMu    sync.RWMutex
	opsExtra = map[string]Operation{}
)

func primitive(name string) (Operation, bool) {
	for _, op := range primitives {
		if op.Name == name {
			return op, true
		}
	}
	return Operation{}, false
}

// Register adds an operation to the pattern vocabulary under op.Name,
// replacing any previous registration of that name (mirroring
// datagen.Register). The primitives cannot be replaced — patterns relying
// on them must mean the same thing everywhere.
func Register(op Operation) error {
	if op.Name == "" {
		return fmt.Errorf("opcompose: Register: operation has no name")
	}
	if op.Apply == nil {
		return fmt.Errorf("opcompose: Register: operation %q has no Apply", op.Name)
	}
	if _, ok := primitive(op.Name); ok {
		return fmt.Errorf("opcompose: Register: %q is a builtin primitive and cannot be replaced", op.Name)
	}
	opsMu.Lock()
	defer opsMu.Unlock()
	opsExtra[op.Name] = op
	return nil
}

// Lookup resolves an operation by name: primitives first, then registered
// extensions.
func Lookup(name string) (Operation, bool) {
	if op, ok := primitive(name); ok {
		return op, true
	}
	opsMu.RLock()
	defer opsMu.RUnlock()
	op, ok := opsExtra[name]
	return op, ok
}

// Operations returns every available operation name: the primitives in
// canonical order, then registered extensions sorted.
func Operations() []string {
	out := make([]string, 0, len(primitives))
	for _, op := range primitives {
		out = append(out, op.Name)
	}
	opsMu.RLock()
	extra := make([]string, 0, len(opsExtra))
	for name := range opsExtra {
		extra = append(extra, name)
	}
	opsMu.RUnlock()
	sort.Strings(extra)
	return append(out, extra...)
}

// window picks a seeded window start over the records; n is the effective
// window size (the whole corpus when it is smaller than opWindow).
func window(ctx *OpContext) (start, n int) {
	if len(ctx.Records) == 0 {
		return 0, 0
	}
	n = opWindow
	if len(ctx.Records) < n {
		n = len(ctx.Records)
	}
	return ctx.RNG.IntN(len(ctx.Records)), n
}

// rec wraps an index into the records ring.
func rec(ctx *OpContext, i int) string { return ctx.Records[i%len(ctx.Records)] }

// opScan reads a window sequentially and folds the record sizes.
func opScan(ctx *OpContext) uint64 {
	start, n := window(ctx)
	var fold uint64
	for i := 0; i < n; i++ {
		fold = fold*31 + uint64(len(rec(ctx, start+i)))
	}
	return stats.Mix64(fold)
}

// opFilter draws a 3-byte probe from a seeded record and counts the window
// records containing it.
func opFilter(ctx *OpContext) uint64 {
	start, n := window(ctx)
	if n == 0 {
		return 0
	}
	src := rec(ctx, ctx.RNG.IntN(len(ctx.Records)))
	probe := src
	if len(src) > 3 {
		at := ctx.RNG.IntN(len(src) - 3)
		probe = src[at : at+3]
	}
	var hits uint64
	for i := 0; i < n; i++ {
		if strings.Contains(rec(ctx, start+i), probe) {
			hits++
		}
	}
	return stats.Mix64(hits<<16 | uint64(n))
}

// opAggregate groups a window by record-length class and folds per-group
// byte sums.
func opAggregate(ctx *OpContext) uint64 {
	start, n := window(ctx)
	var groups [8]uint64
	for i := 0; i < n; i++ {
		l := uint64(len(rec(ctx, start+i)))
		groups[l%8] += l
	}
	var fold uint64
	for _, g := range groups {
		fold = fold*31 + g
	}
	return stats.Mix64(fold)
}

// joinKey is a record's join key: its first field (the combined-log host,
// a table row's first column), or the whole record when it has one field.
func joinKey(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// opJoin builds a key set over one window and probes it with a second,
// counting matches.
func opJoin(ctx *OpContext) uint64 {
	start, n := window(ctx)
	if n == 0 {
		return 0
	}
	keys := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		keys[joinKey(rec(ctx, start+i))] = struct{}{}
	}
	probeStart := ctx.RNG.IntN(len(ctx.Records))
	var hits uint64
	for i := 0; i < n; i++ {
		if _, ok := keys[joinKey(rec(ctx, probeStart+i))]; ok {
			hits++
		}
	}
	return stats.Mix64(hits<<16 | uint64(len(keys)))
}

// opTransform maps every window record through FNV-1a and xor-folds the
// results.
func opTransform(ctx *OpContext) uint64 {
	start, n := window(ctx)
	var fold uint64
	for i := 0; i < n; i++ {
		fold ^= stats.FNV64(rec(ctx, start+i))
	}
	return stats.Mix64(fold)
}

// opPut writes a seeded record under a seeded key.
func opPut(ctx *OpContext) uint64 {
	if len(ctx.Records) == 0 {
		return 0
	}
	key := ctx.RNG.Uint64() % keySpace
	v := rec(ctx, ctx.RNG.IntN(len(ctx.Records)))
	ctx.Store[key] = v
	return stats.Mix64(key<<1 | 1)
}

// opGet reads a seeded key from the substrate; hits fold the value size.
func opGet(ctx *OpContext) uint64 {
	key := ctx.RNG.Uint64() % keySpace
	v, ok := ctx.Store[key]
	if !ok {
		return stats.Mix64(key << 1)
	}
	return stats.Mix64(key<<16 | uint64(len(v)))
}
