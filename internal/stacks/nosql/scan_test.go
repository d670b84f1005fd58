package nosql

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

// referenceScan is the scan this package had before the k-way merge: take up
// to limit records from every partition, sort the union, truncate. It lives
// on here only as the oracle the merge is checked against.
func referenceScan(s *Store, start string, limit int) []KV {
	if limit <= 0 {
		return nil
	}
	var all []KV
	for _, p := range s.parts {
		p.mu.RLock()
		taken := 0
		p.list.scanFrom(start, func(key string, row Row) bool {
			all = append(all, KV{Key: key, Rec: row})
			taken++
			return taken < limit
		})
		p.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}

// TestScanMatchesReference: over random stores of 1–8 partitions — sparse
// and dense key spaces, overwritten and deleted keys — Scan returns exactly
// what gather-sort-truncate returned, for starts before, inside and past the
// key range and limits from 1 to past the end.
func TestScanMatchesReference(t *testing.T) {
	g := stats.NewRNG(16)
	for trial := 0; trial < 60; trial++ {
		parts := 1 + g.IntN(8)
		s := Open(parts, uint64(trial))
		keySpace := 1 + g.IntN(400)
		for i, n := 0, g.IntN(300); i < n; i++ {
			key := fmt.Sprintf("key%04d", g.IntN(keySpace))
			switch g.IntN(6) {
			case 0:
				_ = s.Delete(key)
			case 1:
				_ = s.Update(key, Record{"f1": fmt.Sprint(i)})
			default:
				s.Insert(key, Record{"f0": key, "f1": fmt.Sprint(i)})
			}
		}
		size := s.Size()
		starts := []string{"", "key", "zzz", fmt.Sprintf("key%04d", keySpace), fmt.Sprintf("key%04d", keySpace-1)}
		for i := 0; i < 6; i++ {
			starts = append(starts, fmt.Sprintf("key%04d", g.IntN(keySpace)))
		}
		limits := []int{1, 2, size, size + 1, size + 100, math.MaxInt}
		for i := 0; i < 4; i++ {
			limits = append(limits, 1+g.IntN(size+2))
		}
		for _, start := range starts {
			for _, limit := range limits {
				got, want := s.Scan(start, limit), referenceScan(s, start, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (%d partitions, %d records): Scan(%q, %d)\n got %v\nwant %v",
						trial, parts, size, start, limit, got, want)
				}
			}
		}
	}
}

// TestScanUnderConcurrentWrites: Scan carries stored rows across the
// partition unlock while Insert, Update, ReadModifyWrite and Delete keep
// replacing records — what `make race` watches. Every scan must still be in
// strict key order within its range, and every record in it whole: writers
// only ever store records whose two fields agree.
func TestScanUnderConcurrentWrites(t *testing.T) {
	const keys = 400
	s := Open(4, 9)
	key := func(i int) string { return fmt.Sprintf("key%04d", i) }
	for i := 0; i < keys; i++ {
		s.Insert(key(i), Record{"a": "0", "b": "0"})
	}
	stop := make(chan struct{})
	var writers, scanners sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			g := stats.NewRNG(uint64(w))
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, v := key(g.IntN(keys)), fmt.Sprint(i)
				switch g.IntN(4) {
				case 0:
					s.Insert(k, Record{"a": v, "b": v})
				case 1:
					_ = s.Update(k, Record{"a": v, "b": v})
				case 2:
					_ = s.ReadModifyWrite(k, func(r Record) Record { r["a"], r["b"] = v, v; return r })
				case 3:
					_ = s.Delete(k)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		scanners.Add(1)
		go func(r int) {
			defer scanners.Done()
			g := stats.NewRNG(uint64(100 + r))
			for i := 0; i < 300; i++ {
				start, limit := key(g.IntN(keys)), 1+g.IntN(100)
				got := s.Scan(start, limit)
				if len(got) > limit {
					t.Errorf("Scan(%q, %d) returned %d records", start, limit, len(got))
				}
				for j, kv := range got {
					if kv.Key < start || (j > 0 && got[j-1].Key >= kv.Key) {
						t.Errorf("Scan(%q, %d): key %q at %d out of order", start, limit, kv.Key, j)
					}
					if len(kv.Rec.fields) != 2 || kv.Rec.Get("a") != kv.Rec.Get("b") {
						t.Errorf("Scan(%q, %d): torn record %v under %q", start, limit, kv.Rec, kv.Key)
					}
				}
			}
		}(r)
	}
	scanners.Wait()
	close(stop)
	writers.Wait()
}

// TestScannedRowsAndScratchDoNotAliasTheStore: the rows a Scan returned stay
// what they were through later writes to their keys, and the scratch map a
// ReadModifyWrite function kept past its call cannot change the store.
func TestScannedRowsAndScratchDoNotAliasTheStore(t *testing.T) {
	s := Open(3, 1)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for i := 0; i < 20; i++ {
		s.Insert(key(i), Record{"f": "stored"})
	}
	before := s.Scan("", 100)
	var stashed []Record
	for i := 0; i < 20; i++ {
		var err error
		switch i % 3 {
		case 0:
			err = s.Update(key(i), Record{"f": "written", "g": "added"})
		case 1:
			err = s.ReadModifyWrite(key(i), func(r Record) Record {
				stashed = append(stashed, r)
				r["f"] = "written"
				return r
			})
		case 2:
			err = s.Delete(key(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(before) != 20 {
		t.Fatalf("%d records", len(before))
	}
	for _, kv := range before {
		if want := []Field{{"f", "stored"}}; !slices.Equal(kv.Rec.fields, want) {
			t.Fatalf("%s: a later write reached a scanned row: %v", kv.Key, kv.Rec.fields)
		}
	}
	for _, r := range stashed {
		r["f"] = "the function's map is not the stored row"
		r["extra"] = "x"
	}
	for _, kv := range s.Scan("", 100) {
		if got := kv.Rec.Get("f"); got != "written" || kv.Rec.Get("extra") != "" {
			t.Fatalf("%s: a stashed scratch map reached the store: %v", kv.Key, kv.Rec.fields)
		}
	}
	// The scratch is lent again: a function that returns a map of its own is
	// copied out just the same.
	own := Record{"f": "own"}
	if err := s.ReadModifyWrite(key(0), func(Record) Record { return own }); err != nil {
		t.Fatal(err)
	}
	own["f"] = "changed after the call"
	if r, _ := s.Read(key(0), nil); r.Get("f") != "own" {
		t.Fatalf("the map a function returned is aliased by the store: %v", r.fields)
	}
}

// TestStoredRecordsAreNeverMutated holds the invariant Read and Scan rest on
// (see partition): a row that has been in the list is never written again.
// Take the stored rows themselves, run every kind of write over their keys,
// and they must read exactly as they did.
func TestStoredRecordsAreNeverMutated(t *testing.T) {
	s := Open(3, 2)
	caller := Record{"f0": "a", "f1": "b"}
	held := map[string]Row{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		s.Insert(k, caller)
		held[k] = s.part(k).list.find(k).val
	}
	caller["f0"] = "the caller's map is not the stored one"
	was := map[string][]Field{}
	for k, row := range held {
		was[k] = slices.Clone(row.fields)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		switch i % 4 {
		case 0:
			s.Insert(k, Record{"f0": "replaced"})
		case 1:
			if err := s.Update(k, Record{"f1": "merged", "f2": "added"}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := s.ReadModifyWrite(k, func(r Record) Record { r["f0"] = "rmw"; delete(r, "f1"); return r }); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, row := range held {
		if !slices.Equal(row.fields, was[k]) {
			t.Fatalf("%s: the stored row was written in place: %v, was %v", k, row.fields, was[k])
		}
		if node := s.part(k).list.find(k); node != nil && &node.val.fields[0] == &row.fields[0] {
			t.Fatalf("%s: a write left the old row installed", k)
		}
	}
}

// ycsbShapedStore returns a four-partition store of 2 000 ten-field records.
func ycsbShapedStore() *Store {
	s := Open(4, 3)
	rec := Record{}
	for f := 0; f < 10; f++ {
		rec[fmt.Sprintf("field%d", f)] = "value"
	}
	for i := 0; i < 2000; i++ {
		s.Insert(fmt.Sprintf("user%06d", i), rec)
	}
	return s
}

// TestScanCopiesNoRow: a scan hands out the stored rows themselves, so its
// price is the gather and the result — three allocations whatever the limit.
func TestScanCopiesNoRow(t *testing.T) {
	s := ycsbShapedStore()
	for _, kv := range s.Scan("user000500", 50) {
		if stored := s.part(kv.Key).list.find(kv.Key).val; &kv.Rec.fields[0] != &stored.fields[0] {
			t.Fatalf("%s: the scanned row is a copy of the stored one", kv.Key)
		}
	}
	for _, limit := range []int{1, 50, 1000, math.MaxInt} {
		scan := testing.AllocsPerRun(100, func() { s.Scan("user000500", limit) })
		if scan > 3 && !raceflag.Enabled {
			t.Errorf("Scan of %d records: %.0f allocations, want at most 3", limit, scan)
		}
	}
}

// TestSkipListWritesReuseTheirPath: the search path of set and del is scratch
// on the list, so replacing a key's record or missing a delete allocates
// nothing and an insert allocates only its node.
func TestSkipListWritesReuseTheirPath(t *testing.T) {
	l := newSkipList(stats.NewRNG(4))
	rec := rowOf(Record{"f": "v"})
	for i := 0; i < 500; i++ {
		l.set(fmt.Sprintf("k%04d", i), rec)
	}
	allocs := testing.AllocsPerRun(200, func() {
		l.set("k0250", rec)
		l.del("absent")
	})
	if allocs != 0 && !raceflag.Enabled {
		t.Errorf("replace + missed delete: %.1f allocations, want 0", allocs)
	}
}

// TestPointOperationAllocations prices the point operations on a
// YCSB-shaped store: a read hands out the stored row, an update of existing
// fields and a read-modify-write build one new row each.
func TestPointOperationAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts not asserted under -race")
	}
	s := ycsbShapedStore()
	fields := Record{"field0": "new", "field7": "new"}
	for _, tc := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"Read", func() { _, _ = s.Read("user000700", nil) }, 0},
		{"Read of a missing key", func() { _, _ = s.Read("absent", nil) }, 0},
		{"Read of two fields", func() { _, _ = s.Read("user000700", []string{"field3", "field4"}) }, 1},
		{"Update of existing fields", func() { _ = s.Update("user000700", fields) }, 1},
		{"ReadModifyWrite", func() {
			_ = s.ReadModifyWrite("user000700", func(r Record) Record { r["field0"] = "rmw"; return r })
		}, 1},
	} {
		if got := testing.AllocsPerRun(200, tc.op); got > tc.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
