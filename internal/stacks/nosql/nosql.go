// Package nosql is bdbench's cloud-serving store: a partitioned, ordered
// key-value store with the abstract operation set YCSB defines — read,
// insert, update (field merge), delete, scan and read-modify-write. It
// stands in for the Cassandra/HBase/PNUTS systems of the paper's survey.
//
// Keys hash onto partitions; each partition is an independent skip list
// guarded by a mutex, so concurrent clients contend per-partition as they
// would across nodes. Scans scatter to all partitions and merge the sorted
// runs, like a range query over region servers.
package nosql

import (
	"errors"
	"slices"
	"sync"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
)

// Record is a field-name -> value document, YCSB's record model.
type Record map[string]string

// clone returns a deep copy; the store never aliases caller maps.
func (r Record) clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// ErrNotFound is returned for reads/updates/deletes of absent keys.
var ErrNotFound = errors.New("nosql: key not found")

// Store is the partitioned KV store.
type Store struct {
	parts   []*partition
	scanRef metrics.OpRef
}

// partition is one contention domain: an ordered list behind a lock.
//
// Invariant: a record map is never mutated once it is in the list. Insert,
// Update and ReadModifyWrite all install a fresh map (skipList.set swaps the
// node's reference), and nothing hands a stored map out. That is what lets
// Scan pick up references under the read lock and clone them after
// releasing it; TestStoredRecordsAreNeverMutated holds it.
type partition struct {
	mu   sync.RWMutex
	list *skipList
	// Store-level latency handles, zero (no-ops) until Instrument.
	insertRef, readRef, updateRef, deleteRef, rmwRef metrics.OpRef
}

// Open creates a store with the given partition count (clamped to >= 1).
// The seed drives the skip lists' balancing coins only; it never affects
// contents.
func Open(partitions int, seed uint64) *Store {
	if partitions < 1 {
		partitions = 1
	}
	s := &Store{parts: make([]*partition, partitions)}
	base := stats.NewRNG(seed)
	for i := range s.parts {
		s.parts[i] = &partition{list: newSkipList(base.Split("partition", i))}
	}
	return s
}

// Instrument attaches a collector (nil detaches) and returns the store.
// Each partition mints a private substrate shard from c and binds its
// store-level operation latencies ("kv_read", "kv_insert", ...) there, once,
// mirroring the store's own contention domains: clients hitting different
// partitions never share a measurement cell either, and no operation looks
// a label up.
func (s *Store) Instrument(c *metrics.Collector) *Store {
	for _, p := range s.parts {
		shard := c.SubstrateShard()
		p.insertRef = shard.Op("kv_insert")
		p.readRef = shard.Op("kv_read")
		p.updateRef = shard.Op("kv_update")
		p.deleteRef = shard.Op("kv_delete")
		p.rmwRef = shard.Op("kv_rmw")
	}
	s.scanRef = c.SubstrateShard().Op("kv_scan")
	return s
}

func (s *Store) part(key string) *partition {
	return s.parts[stats.FNV64(key)%uint64(len(s.parts))]
}

// Insert stores a full record under key, replacing any existing record.
func (s *Store) Insert(key string, rec Record) {
	p := s.part(key)
	t0 := p.insertRef.StartTimer()
	p.mu.Lock()
	p.list.set(key, rec.clone())
	p.mu.Unlock()
	p.insertRef.ObserveSince(t0)
}

// Read returns the record's requested fields (all when fields is nil).
func (s *Store) Read(key string, fields []string) (Record, error) {
	p := s.part(key)
	t0 := p.readRef.StartTimer()
	p.mu.RLock()
	rec, ok := p.list.get(key)
	if !ok {
		p.mu.RUnlock()
		p.readRef.ObserveSince(t0)
		return nil, ErrNotFound
	}
	out := projectFields(rec, fields)
	p.mu.RUnlock()
	p.readRef.ObserveSince(t0)
	return out, nil
}

func projectFields(rec Record, fields []string) Record {
	if fields == nil {
		return rec.clone()
	}
	out := make(Record, len(fields))
	for _, f := range fields {
		if v, ok := rec[f]; ok {
			out[f] = v
		}
	}
	return out
}

// Update merges the given fields into an existing record.
func (s *Store) Update(key string, fields Record) error {
	p := s.part(key)
	t0 := p.updateRef.StartTimer()
	defer p.updateRef.ObserveSince(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.list.get(key)
	if !ok {
		return ErrNotFound
	}
	merged := rec.clone()
	for k, v := range fields {
		merged[k] = v
	}
	p.list.set(key, merged)
	return nil
}

// Delete removes a key.
func (s *Store) Delete(key string) error {
	p := s.part(key)
	t0 := p.deleteRef.StartTimer()
	defer p.deleteRef.ObserveSince(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.list.del(key) {
		return ErrNotFound
	}
	return nil
}

// ReadModifyWrite reads the record, applies fn to a copy and writes the
// result back atomically with respect to the key's partition.
func (s *Store) ReadModifyWrite(key string, fn func(Record) Record) error {
	p := s.part(key)
	t0 := p.rmwRef.StartTimer()
	defer p.rmwRef.ObserveSince(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.list.get(key)
	if !ok {
		return ErrNotFound
	}
	p.list.set(key, fn(rec.clone()).clone())
	return nil
}

// KV is a scan result element.
type KV struct {
	Key string
	Rec Record
}

// Scan returns up to limit records with keys >= start, in global key order:
// a k-way merge over the per-partition ordered lists. Each partition
// contributes references to its first limit candidates under its own read
// lock — no copies, which the partition invariant makes safe to hold past
// the unlock — and only the limit winners of the merge are cloned.
func (s *Store) Scan(start string, limit int) []KV {
	if limit <= 0 {
		return nil
	}
	t0 := s.scanRef.StartTimer()
	defer s.scanRef.ObserveSince(t0)
	// Partition i's candidates are refs[runs[i].next:runs[i].end], in key order.
	type run struct{ next, end int }
	runs := make([]run, len(s.parts))
	var refs []KV
	for i, p := range s.parts {
		first := len(refs)
		p.mu.RLock()
		refs = slices.Grow(refs, min(limit, p.list.len())) // all it can add, however large limit is
		p.list.scanFrom(start, func(key string, rec Record) bool {
			refs = append(refs, KV{Key: key, Rec: rec})
			return len(refs)-first < limit
		})
		p.mu.RUnlock()
		runs[i] = run{first, len(refs)}
	}
	if len(refs) == 0 {
		return nil
	}
	out := make([]KV, min(limit, len(refs)))
	for o := range out {
		best := -1 // the run whose head is smallest; a key lives in one partition, so no ties
		for i, r := range runs {
			if r.next < r.end && (best < 0 || refs[r.next].Key < refs[runs[best].next].Key) {
				best = i
			}
		}
		win := refs[runs[best].next]
		runs[best].next++
		out[o] = KV{Key: win.Key, Rec: win.Rec.clone()}
	}
	return out
}

// Size returns the total number of records.
func (s *Store) Size() int {
	total := 0
	for _, p := range s.parts {
		p.mu.RLock()
		total += p.list.len()
		p.mu.RUnlock()
	}
	return total
}
