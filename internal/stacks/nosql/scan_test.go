package nosql

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

// referenceScan is the scan this package had before the k-way merge: clone up
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
		p.list.scanFrom(start, func(key string, rec Record) bool {
			all = append(all, KV{Key: key, Rec: rec.clone()})
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

// TestScanUnderConcurrentWrites: Scan carries record references across the
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
					if len(kv.Rec) != 2 || kv.Rec["a"] != kv.Rec["b"] {
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

// TestResultsDoNotAliasTheStore: what Read and Scan hand out is the
// caller's to change; the store never sees it.
func TestResultsDoNotAliasTheStore(t *testing.T) {
	s := Open(3, 1)
	for i := 0; i < 20; i++ {
		s.Insert(fmt.Sprintf("k%02d", i), Record{"f": "stored"})
	}
	rec, err := s.Read("k03", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec["f"] = "mutated"
	rec["extra"] = "x"
	for _, kv := range s.Scan("", 100) {
		kv.Rec["f"] = "mutated"
		delete(kv.Rec, "f")
		kv.Rec["extra"] = "x"
	}
	got := s.Scan("", 100)
	if len(got) != 20 {
		t.Fatalf("%d records", len(got))
	}
	for _, kv := range got {
		if len(kv.Rec) != 1 || kv.Rec["f"] != "stored" {
			t.Fatalf("%s: a caller's edit reached the store: %v", kv.Key, kv.Rec)
		}
		if r, _ := s.Read(kv.Key, nil); len(r) != 1 || r["f"] != "stored" {
			t.Fatalf("%s: a caller's edit reached the store: %v", kv.Key, r)
		}
	}
}

// TestStoredRecordsAreNeverMutated holds the invariant Scan rests on (see
// partition): a map that has been in the list is never written again. Take
// the stored maps themselves, run every kind of write over their keys, and
// they must read exactly as they did.
func TestStoredRecordsAreNeverMutated(t *testing.T) {
	s := Open(3, 2)
	caller := Record{"f0": "a", "f1": "b"}
	held := map[string]Record{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		s.Insert(k, caller)
		p := s.part(k)
		held[k], _ = p.list.get(k)
	}
	caller["f0"] = "the caller's map is not the stored one"
	was := map[string]Record{}
	for k, rec := range held {
		was[k] = maps.Clone(rec)
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
	for k, rec := range held {
		if !maps.Equal(rec, was[k]) {
			t.Fatalf("%s: the stored map was written in place: %v, was %v", k, rec, was[k])
		}
		if now, ok := s.part(k).list.get(k); ok && reflect.ValueOf(now).Pointer() == reflect.ValueOf(rec).Pointer() {
			t.Fatalf("%s: a write left the old map installed", k)
		}
	}
}

// TestScanClonesOnlyWinners prices a scan in record clones: the limit
// winners, not limit candidates from every partition, plus a handful of
// allocations for the gather and the result.
func TestScanClonesOnlyWinners(t *testing.T) {
	const limit = 50
	s := Open(4, 3)
	rec := Record{}
	for f := 0; f < 10; f++ {
		rec[fmt.Sprintf("field%d", f)] = "value"
	}
	for i := 0; i < 2000; i++ {
		s.Insert(fmt.Sprintf("user%06d", i), rec)
	}
	var kept Record // escapes, as a scanned record does
	perClone := testing.AllocsPerRun(100, func() { kept = rec.clone() })
	_ = kept
	scan := testing.AllocsPerRun(100, func() { s.Scan("user000500", limit) })
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.0f)", scan)
	}
	if max := limit*perClone + 8; scan > max {
		t.Errorf("Scan of %d records: %.0f allocations, want at most %.0f (%.0f per clone)", limit, scan, max, perClone)
	}
}

// TestSkipListWritesReuseTheirPath: the search path of set and del is scratch
// on the list, so replacing a key's record or missing a delete allocates
// nothing and an insert allocates only its node.
func TestSkipListWritesReuseTheirPath(t *testing.T) {
	l := newSkipList(stats.NewRNG(4))
	rec := Record{"f": "v"}
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
