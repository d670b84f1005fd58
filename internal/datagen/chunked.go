package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

// DefaultChunkSize is the item count per chunk used when a generator does
// not pick its own granularity. Chunks are the unit of parallelism and of
// determinism: output depends on the chunk plan, never on the worker count.
const DefaultChunkSize = 4096

// Chunk is one independent unit of a generation plan: items [Start, End) of
// the corpus, generated from an RNG derived from (corpus seed, Index). Two
// chunks share no generator state, so any subset can run on any worker in
// any order without changing a single output byte.
type Chunk struct {
	Index      int
	Start, End int64
}

// Len returns the number of items the chunk covers.
func (c Chunk) Len() int64 { return c.End - c.Start }

// PlanChunks splits total items into consecutive chunks of at most size
// items (DefaultChunkSize when size <= 0). The plan depends only on its
// arguments — planning is what makes chunked generation reproducible.
func PlanChunks(total, size int64) []Chunk {
	if total <= 0 {
		return nil
	}
	if size <= 0 {
		size = DefaultChunkSize
	}
	plan := make([]Chunk, 0, (total+size-1)/size)
	for start := int64(0); start < total; start += size {
		end := start + size
		if end > total {
			end = total
		}
		plan = append(plan, Chunk{Index: len(plan), Start: start, End: end})
	}
	return plan
}

// Generate allocates the output once, sized from the plan (consecutive
// chunks from 0, as PlanChunks returns it), and runs fill over every chunk on
// a bounded worker pool: chunk c writes its items into its own window
// out[c.Start:c.End:c.End], so chunks share no memory and nothing is joined
// afterwards. Each chunk's RNG is derived from (seed, chunk index), so the
// result is identical for any worker count. A chunk error — or a panic inside
// fill, which is recovered — fails the whole generation: Generate returns nil
// and the first error.
func Generate[T any](seed uint64, plan []Chunk, workers int, fill func(g *stats.RNG, c Chunk, dst []T) error) ([]T, error) {
	if len(plan) == 0 {
		return nil, nil
	}
	out := make([]T, plan[len(plan)-1].End)
	err := Parallel(seed, len(plan), workers, func(i int, g *stats.RNG) error {
		c := plan[i]
		return fill(g, c, out[c.Start:c.End:c.End])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Slab cuts variable-length items, a chunk's documents say, from shared
// arrays, so the items cost a few allocations rather than one each. A cut
// that does not fit in what is left starts a new array of Size elements, or
// of the cut's length if that is larger: size a chunk's slab to what its
// items are expected to need, with room to spare. A cut is capped (len ==
// cap), so appending to one copies it rather than overwrite the next.
type Slab[T any] struct {
	Size int
	free []T
}

// Cut returns n zero values of T.
func (s *Slab[T]) Cut(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, s.Size))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Chunked is a corpus generator family that plans its output as independent
// chunks: Plan decides the chunk boundaries for a scale, AppendChunk renders
// one chunk from an RNG the driver derives from the corpus seed and the chunk
// index. Implementations must keep AppendChunk free of shared mutable state
// so chunks can run concurrently.
type Chunked interface {
	// Name identifies the generator family in the registry and the CLI.
	Name() string
	// Plan splits the corpus at the given scale into independent chunks.
	Plan(scale int) []Chunk
	// AppendChunk appends chunk c of the corpus at the given scale to dst and
	// returns the extended slice. It leaves dst's existing bytes untouched,
	// appends exactly what it would to a nil dst, and keeps no reference to
	// dst: the driver reuses the buffer for a later chunk.
	AppendChunk(dst []byte, g *stats.RNG, scale int, c Chunk) ([]byte, error)
}

// Stat reports one Build's shape and timing — the generation-cost evidence
// the paper says a benchmark must account for.
type Stat struct {
	Generator string        `json:"generator"`
	Scale     int           `json:"scale"`
	Seed      uint64        `json:"seed"`
	Workers   int           `json:"workers"`
	Chunks    int           `json:"chunks"`
	Items     int64         `json:"items"`
	Bytes     int64         `json:"bytes"`
	Elapsed   time.Duration `json:"elapsed"`
	// Digest is the SHA-256 of the assembled corpus. Equal digests across
	// worker counts are the determinism contract made visible.
	Digest string `json:"digest"`
}

// ItemsPerSec returns the achieved generation rate in items/second.
func (s Stat) ItemsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Items) / s.Elapsed.Seconds()
}

// MBPerSec returns the achieved generation rate in megabytes/second.
func (s Stat) MBPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) / 1e6 / s.Elapsed.Seconds()
}

// Build runs a Chunked generator's full plan on the worker pool (one worker
// per CPU when workers <= 0) and returns the assembled corpus with its
// Stat. The corpus bytes and digest depend only on (generator, seed, scale).
// Callers that only need the Stat should use BuildStat, which never holds
// the corpus.
func Build(cg Chunked, seed uint64, scale, workers int) ([]byte, Stat, error) {
	parts, stat, err := buildParts(cg, seed, scale, workers, true)
	if err != nil {
		return nil, stat, err
	}
	return bytes.Join(parts, nil), stat, nil
}

// BuildStat is Build without the corpus: it holds the chunks in flight and
// those that finished ahead of an earlier one, never the whole corpus.
func BuildStat(cg Chunked, seed uint64, scale, workers int) (Stat, error) {
	_, stat, err := buildParts(cg, seed, scale, workers, false)
	return stat, err
}

// buildParts runs the plan and completes the Stat. Each chunk appends into a
// buffer from a free list; whichever worker finishes chunk next hashes every
// finished chunk from there on in plan order, outside the lock, and returns
// their buffers to the list. With keep it returns a copy of every chunk.
func buildParts(cg Chunked, seed uint64, scale, workers int, keep bool) ([][]byte, Stat, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if scale < 1 {
		scale = 1
	}
	plan := cg.Plan(scale)
	var items int64
	for _, c := range plan {
		items += c.Len()
	}
	var (
		mu      sync.Mutex
		free    [][]byte
		ready   = make([][]byte, len(plan))
		done    = make([]bool, len(plan))
		next    int
		hashing bool
		parts   [][]byte
		size    int64
		h       = sha256.New()
	)
	t0 := time.Now() //bdvet:allow detnondet -- measures generation wall time for Stat.Elapsed; never feeds data bytes
	err := Parallel(seed, len(plan), workers, func(i int, g *stats.RNG) error {
		var buf []byte
		mu.Lock()
		if n := len(free); n > 0 {
			buf, free = free[n-1], free[:n-1]
		}
		mu.Unlock()
		buf, err := cg.AppendChunk(buf[:0], g, scale, plan[i])
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		ready[i], done[i] = buf, true
		if hashing {
			return nil
		}
		hashing = true
		for next < len(plan) && done[next] {
			b := ready[next]
			ready[next] = nil
			mu.Unlock()
			_, _ = h.Write(b)
			size += int64(len(b))
			if keep {
				parts = append(parts, bytes.Clone(b))
			}
			mu.Lock()
			free = append(free, b)
			next++
		}
		hashing = false
		return nil
	})
	stat := Stat{
		Generator: cg.Name(),
		Scale:     scale,
		Seed:      seed,
		Workers:   workers,
		Chunks:    len(plan),
		Items:     items,
	}
	if err != nil {
		return nil, stat, err
	}
	stat.Elapsed = time.Since(t0) //bdvet:allow detnondet -- wall-time measurement only; Digest covers the deterministic bytes
	stat.Bytes = size
	stat.Digest = hex.EncodeToString(h.Sum(nil))
	return parts, stat, nil
}

// The registry of named corpus generators, populated by the corpora
// package's built-ins and open to callers registering their own.
var (
	regMu    sync.RWMutex
	registry = map[string]Chunked{}
)

// Register adds a generator family under its Name, replacing any previous
// registration of that name.
func Register(cg Chunked) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[cg.Name()] = cg
}

// Lookup returns the named generator family.
func Lookup(name string) (Chunked, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	cg, ok := registry[name]
	return cg, ok
}

// Generators returns the registered generator names, sorted.
func Generators() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
