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
	"strings"
	"sync"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
)

// Record is a field-name -> value document, YCSB's record model: the form
// callers write with. The store keeps a Row.
type Record map[string]string

// Field is one name/value pair of a Row.
type Field struct{ Name, Value string }

// Row is the stored form of a record: its fields in name order, in one
// allocation, with no way to change it. Read and Scan hand out the stored
// Row itself, which stays what it was whatever is written to its key later.
type Row struct{ fields []Field }

// byName orders fields by name.
func byName(a, b Field) int { return strings.Compare(a.Name, b.Name) }

// rowOf copies rec into a Row.
func rowOf(rec Record) Row {
	fields := make([]Field, 0, len(rec))
	for name, value := range rec {
		fields = append(fields, Field{name, value})
	}
	slices.SortFunc(fields, byName)
	return Row{fields}
}

// find returns the index of name among the row's fields, or where it would
// be inserted.
func (r Row) find(name string) (int, bool) {
	return slices.BinarySearchFunc(r.fields, Field{Name: name}, byName)
}

// Get returns the value of the named field, "" when the row has none.
//
//bdbench:hotpath
func (r Row) Get(name string) string {
	if i, ok := r.find(name); ok {
		return r.fields[i].Value
	}
	return ""
}

// with returns a new Row: r with the given fields merged over it. Replacing
// values is one allocation; a name r does not have grows the copy.
func (r Row) with(fields Record) Row {
	out := Row{slices.Clone(r.fields)}
	for name, value := range fields {
		i, ok := out.find(name)
		if !ok {
			out.fields = slices.Insert(out.fields, i, Field{Name: name})
		}
		out.fields[i].Value = value
	}
	return out
}

// project returns a new Row of the named fields r has.
func (r Row) project(names []string) Row {
	out := make([]Field, 0, len(names))
	for _, f := range r.fields {
		if slices.Contains(names, f.Name) {
			out = append(out, f)
		}
	}
	return Row{out}
}

// fill empties rec and copies the row's fields into it.
func (r Row) fill(rec Record) {
	clear(rec)
	for _, f := range r.fields {
		rec[f.Name] = f.Value
	}
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
// A stored record is never mutated, and the Row type is what holds that:
// Insert, Update and ReadModifyWrite install a new Row in the key's node, so
// Read and Scan hand the stored Row out under the read lock without copying
// it, and it may be held past the unlock. TestStoredRecordsAreNeverMutated
// watches it.
type partition struct {
	mu   sync.RWMutex
	list *skipList
	// scratch is the map ReadModifyWrite lends its function, reused under mu.
	scratch Record
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
		s.parts[i] = &partition{list: newSkipList(base.Split("partition", i)), scratch: Record{}}
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

// Insert stores a copy of rec under key, replacing any existing record.
func (s *Store) Insert(key string, rec Record) {
	p := s.part(key)
	t0 := p.insertRef.StartTimer()
	row := rowOf(rec)
	p.mu.Lock()
	p.list.set(key, row)
	p.mu.Unlock()
	p.insertRef.ObserveSince(t0)
}

// Read returns the stored record (fields nil), or a new Row of the requested
// fields it has.
//
//bdbench:hotpath
func (s *Store) Read(key string, fields []string) (Row, error) {
	p := s.part(key)
	t0 := p.readRef.StartTimer()
	p.mu.RLock()
	node := p.list.find(key)
	if node == nil {
		p.mu.RUnlock()
		p.readRef.ObserveSince(t0)
		return Row{}, ErrNotFound
	}
	row := node.val
	p.mu.RUnlock()
	if fields != nil {
		row = row.project(fields)
	}
	p.readRef.ObserveSince(t0)
	return row, nil
}

// Update merges the given fields into an existing record.
func (s *Store) Update(key string, fields Record) error {
	p := s.part(key)
	t0 := p.updateRef.StartTimer()
	defer p.updateRef.ObserveSince(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	node := p.list.find(key)
	if node == nil {
		return ErrNotFound
	}
	node.val = node.val.with(fields)
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
// result back atomically with respect to the key's partition. The map fn
// receives is the partition's scratch, valid only during the call; what fn
// returns is copied into the store.
func (s *Store) ReadModifyWrite(key string, fn func(Record) Record) error {
	p := s.part(key)
	t0 := p.rmwRef.StartTimer()
	defer p.rmwRef.ObserveSince(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	node := p.list.find(key)
	if node == nil {
		return ErrNotFound
	}
	node.val.fill(p.scratch)
	node.val = rowOf(fn(p.scratch))
	return nil
}

// KV is a scan result element.
type KV struct {
	Key string
	Rec Row
}

// Scan returns up to limit records with keys >= start, in global key order:
// a k-way merge over the per-partition ordered lists. Each partition
// contributes its first limit candidates under its own read lock, and the
// limit winners of the merge are returned: stored rows, none copied.
func (s *Store) Scan(start string, limit int) []KV {
	if limit <= 0 {
		return nil
	}
	t0 := s.scanRef.StartTimer()
	defer s.scanRef.ObserveSince(t0)
	// Partition i's candidates are refs[runs[i].next:runs[i].end], in key order.
	type run struct{ next, end int }
	runs := make([]run, len(s.parts))
	room := 0 // all the partitions can add, however large limit is
	for _, p := range s.parts {
		p.mu.RLock()
		room += min(limit, p.list.len())
		p.mu.RUnlock()
	}
	refs := make([]KV, 0, room)
	for i, p := range s.parts {
		first := len(refs)
		p.mu.RLock()
		p.list.scanFrom(start, func(key string, row Row) bool {
			refs = append(refs, KV{Key: key, Rec: row})
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
		out[o] = refs[runs[best].next]
		runs[best].next++
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
