package nosql

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

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
	// A garbage collection now and then adds one allocation to a measurement
	// (301 in about one run of 40); the scans allocate megabytes, so without
	// this they would trigger some.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, limit := range []int{1, 50, 1000, math.MaxInt} {
		scans := testing.AllocsPerRun(1, func() {
			for range 100 {
				s.Scan("user000500", limit)
			}
		})
		if scans != 3*100 && !raceflag.Enabled {
			t.Errorf("100 scans of %d records: %.0f allocations, want 300", limit, scans)
		}
	}
}

// TestSkipListWritesReuseTheirPath: the search path of set and del is scratch
// on the list, so replacing a key's record or missing a delete allocates
// nothing and an insert allocates only its node.
func TestSkipListWritesReuseTheirPath(t *testing.T) {
	l := newSkipList(stats.NewRNG(4))
	rec := rowOf(Record{"f": "v"}, new(slab[Field]))
	for i := 0; i < 500; i++ {
		l.set(fmt.Sprintf("k%04d", i), rec)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			l.set("k0250", rec)
			l.del("absent")
		}
	})
	if allocs != 0 && !raceflag.Enabled {
		t.Errorf("200 replaces + missed deletes: %.0f allocations, want 0", allocs)
	}
}

// TestSkipListDeleteReleasesTheNode: a deleted node stays in its slab as long
// as the slab's other nodes live, so del clears it: the slab keeps neither
// the key nor the row reachable.
func TestSkipListDeleteReleasesTheNode(t *testing.T) {
	l := newSkipList(stats.NewRNG(6))
	for i := 0; i < 100; i++ {
		l.set(fmt.Sprintf("k%03d", i), rowOf(Record{"f": "v"}, new(slab[Field])))
	}
	for i := 0; i < 100; i += 3 {
		k := fmt.Sprintf("k%03d", i)
		node := l.find(k)
		if !l.del(k) {
			t.Fatalf("%s: not deleted", k)
		}
		if node.key != "" || node.val.fields != nil || node.next != nil {
			t.Fatalf("%s: the deleted node still holds %q, %v, %d links", k, node.key, node.val.fields, len(node.next))
		}
	}
}

// TestPointOperationAllocations prices the point operations on a
// YCSB-shaped store: a read hands out the stored row, and an insert, an
// update (of existing fields or one that adds a field) and a
// read-modify-write cut their new row from the partition's slabs, so a
// thousand of them cost a few allocations.
func TestPointOperationAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts not asserted under -race")
	}
	s := ycsbShapedStore()
	fields := Record{"field0": "new", "field7": "new"}
	added := Record{"field0": "new", "extra": "added"}
	rec := Record{}
	for f := 0; f < 10; f++ {
		rec[fmt.Sprintf("field%d", f)] = "value"
	}
	// Each case runs ops times unmeasured, then ops times measured, so the
	// price reads to a thousandth; call i of the 2*ops gets stored[i] or
	// fresh[i].
	const ops = 1000
	stored := make([]string, 2*ops)
	fresh := make([]string, 2*ops)
	for i := range stored {
		stored[i] = fmt.Sprintf("user%06d", i)
		fresh[i] = fmt.Sprintf("user%06d", 2000+i)
	}
	for _, tc := range []struct {
		name string
		op   func(i int)
		max  float64
	}{
		{"Read", func(int) { _, _ = s.Read("user000700", nil) }, 0},
		{"Read of a missing key", func(int) { _, _ = s.Read("absent", nil) }, 0},
		{"Read of two fields", func(int) { _, _ = s.Read("user000700", []string{"field3", "field4"}) }, 1},
		{"Update of existing fields", func(int) { _ = s.Update("user000700", fields) }, 0.05},
		{"Update that adds a field", func(i int) { _ = s.Update(stored[i], added) }, 0.05},
		{"ReadModifyWrite", func(int) {
			_ = s.ReadModifyWrite("user000700", func(r Record) Record { r["field0"] = "rmw"; return r })
		}, 0.05},
		{"Insert", func(i int) { s.Insert(fresh[i], rec) }, 0.05},
	} {
		call := 0
		got := testing.AllocsPerRun(1, func() {
			for range ops {
				tc.op(call)
				call++
			}
		}) / ops
		if got > tc.max {
			t.Errorf("%s: %.3f allocations, want at most %g", tc.name, got, tc.max)
		}
	}
	if s.Size() != 2000+len(fresh) {
		t.Fatalf("%d records after the inserts, want %d", s.Size(), 2000+len(fresh))
	}
	for _, key := range stored {
		if row, _ := s.Read(key, nil); row.Get("extra") != "added" || len(row.fields) != 11 {
			t.Fatalf("%s: the update did not add its field: %v", key, row.fields)
		}
	}
}

// TestSlabRowsAreCapped: rows cut from a partition's field slab end where
// their fields end (cap == len), so nothing appended to one reaches its
// neighbour, and the rows Read and Scan handed out read byte for byte the
// same after 2 000 more inserts, read-modify-writes and updates that add a
// field into the same partitions. Among them is the row cut right after
// another in the same chunk, held while an update grows the one before it.
func TestSlabRowsAreCapped(t *testing.T) {
	s := ycsbShapedStore()
	type held struct {
		key    string
		row    Row
		fields []Field
	}
	var rows []held
	hold := func(key string, row Row) {
		if cap(row.fields) != len(row.fields) {
			t.Fatalf("%s: a row of %d fields has room for %d", key, len(row.fields), cap(row.fields))
		}
		rows = append(rows, held{key, row, slices.Clone(row.fields)})
	}
	for i := 0; i < 2000; i += 97 {
		key := fmt.Sprintf("user%06d", i)
		row, err := s.Read(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		hold(key, row)
	}
	for _, kv := range s.Scan("user000500", 100) {
		hold(kv.Key, kv.Rec)
	}
	// The first key whose row the slab cut right after another's.
	end := func(r Row) unsafe.Pointer {
		return unsafe.Add(unsafe.Pointer(unsafe.SliceData(r.fields)), len(r.fields)*int(unsafe.Sizeof(Field{})))
	}
	before := map[*partition]string{}
	grown := ""
	for i := 0; i < 2000 && grown == ""; i++ {
		key := fmt.Sprintf("user%06d", i)
		p := s.part(key)
		if prev, ok := before[p]; ok && end(p.list.find(prev).val) == unsafe.Pointer(&p.list.find(key).val.fields[0]) {
			grown = prev
			hold(key, p.list.find(key).val)
		}
		before[p] = key
	}
	if grown == "" {
		t.Fatal("no two rows are neighbours in a chunk")
	}
	if err := s.Update(grown, Record{"field0": "grown", "grown": "added"}); err != nil {
		t.Fatal(err)
	}
	if row, _ := s.Read(grown, nil); len(row.fields) != 11 || row.Get("grown") != "added" {
		t.Fatalf("%s: the update did not grow the row: %v", grown, row.fields)
	}
	g := stats.NewRNG(5)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("user%06d", g.IntN(2000))
		var err error
		switch i % 3 {
		case 0:
			s.Insert(fmt.Sprintf("user%06d", 2000+i), Record{"field0": fmt.Sprint(i), "field1": "inserted"})
		case 1:
			err = s.ReadModifyWrite(key, func(r Record) Record {
				r["field0"], r["extra"] = fmt.Sprint(i), "rmw"
				return r
			})
		case 2:
			err = s.Update(key, Record{"field1": fmt.Sprint(i), fmt.Sprintf("added%d", i%7): "update"})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range rows {
		if !slices.Equal(h.row.fields, h.fields) {
			t.Fatalf("%s: a held row changed under later writes: %v, was %v", h.key, h.row.fields, h.fields)
		}
	}
	for _, kv := range s.Scan("", s.Size()) {
		if cap(kv.Rec.fields) != len(kv.Rec.fields) {
			t.Fatalf("%s: a row of %d fields has room for %d", kv.Key, len(kv.Rec.fields), cap(kv.Rec.fields))
		}
	}
}
