package nosql

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/bdbench/bdbench/internal/stats"
)

func TestInsertReadRoundTrip(t *testing.T) {
	s := Open(4, 1)
	s.Insert("k1", Record{"f0": "a", "f1": "b"})
	rec, err := s.Read("k1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec["f0"] != "a" || rec["f1"] != "b" {
		t.Fatalf("read %v", rec)
	}
	if _, err := s.Read("missing", nil); err != ErrNotFound {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestReadProjection(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1", "b": "2", "c": "3"})
	rec, err := s.Read("k", []string{"a", "c", "zz"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 2 || rec["a"] != "1" || rec["c"] != "3" {
		t.Fatalf("projection %v", rec)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1"})
	rec, _ := s.Read("k", nil)
	rec["a"] = "mutated"
	again, _ := s.Read("k", nil)
	if again["a"] != "1" {
		t.Fatal("store aliased caller map")
	}
}

func TestInsertClonesInput(t *testing.T) {
	s := Open(2, 1)
	in := Record{"a": "1"}
	s.Insert("k", in)
	in["a"] = "mutated"
	got, _ := s.Read("k", nil)
	if got["a"] != "1" {
		t.Fatal("store aliased inserted map")
	}
}

func TestUpdateMergesFields(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1", "b": "2"})
	if err := s.Update("k", Record{"b": "20", "c": "30"}); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Read("k", nil)
	if rec["a"] != "1" || rec["b"] != "20" || rec["c"] != "30" {
		t.Fatalf("merged %v", rec)
	}
	if err := s.Update("missing", Record{"x": "y"}); err != ErrNotFound {
		t.Fatalf("update missing err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1"})
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("k", nil); err != ErrNotFound {
		t.Fatal("deleted key still readable")
	}
	if err := s.Delete("k"); err != ErrNotFound {
		t.Fatal("double delete should fail")
	}
	if s.Size() != 0 {
		t.Fatalf("size %d after delete", s.Size())
	}
}

func TestReadModifyWrite(t *testing.T) {
	s := Open(2, 1)
	s.Insert("counter", Record{"n": "0"})
	for i := 0; i < 10; i++ {
		err := s.ReadModifyWrite("counter", func(r Record) Record {
			r["n"] = fmt.Sprintf("%d", i+1)
			return r
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec, _ := s.Read("counter", nil)
	if rec["n"] != "10" {
		t.Fatalf("rmw result %v", rec)
	}
	if err := s.ReadModifyWrite("missing", func(r Record) Record { return r }); err != ErrNotFound {
		t.Fatal("rmw on missing key should fail")
	}
}

func TestScanGlobalOrder(t *testing.T) {
	s := Open(8, 2) // many partitions: scan must merge correctly
	for i := 0; i < 500; i++ {
		s.Insert(fmt.Sprintf("key%04d", i), Record{"v": fmt.Sprintf("%d", i)})
	}
	got := s.Scan("key0100", 50)
	if len(got) != 50 {
		t.Fatalf("scan returned %d, want 50", len(got))
	}
	for i, kv := range got {
		want := fmt.Sprintf("key%04d", 100+i)
		if kv.Key != want {
			t.Fatalf("scan[%d] = %s, want %s", i, kv.Key, want)
		}
	}
}

func TestScanPastEnd(t *testing.T) {
	s := Open(4, 3)
	s.Insert("a", Record{"v": "1"})
	if got := s.Scan("zzz", 10); len(got) != 0 {
		t.Fatalf("scan past end returned %v", got)
	}
	if got := s.Scan("a", 0); got != nil {
		t.Fatal("zero limit should return nil")
	}
}

func TestSizeAndPartitions(t *testing.T) {
	s := Open(0, 4) // clamps to 1
	if len(s.parts) != 1 {
		t.Fatalf("partitions %d", len(s.parts))
	}
	for i := 0; i < 100; i++ {
		s.Insert(fmt.Sprintf("k%d", i), Record{"v": "x"})
	}
	if s.Size() != 100 {
		t.Fatalf("size %d", s.Size())
	}
	// Overwrites do not grow the store.
	s.Insert("k0", Record{"v": "y"})
	if s.Size() != 100 {
		t.Fatalf("size after overwrite %d", s.Size())
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	s := Open(8, 5)
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("key%04d", i), Record{"f": "init"})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := stats.NewRNG(uint64(w))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key%04d", g.IntN(1000))
				switch g.IntN(4) {
				case 0:
					if _, err := s.Read(key, nil); err != nil && err != ErrNotFound {
						errs <- err
						return
					}
				case 1:
					if err := s.Update(key, Record{"f": "upd"}); err != nil && err != ErrNotFound {
						errs <- err
						return
					}
				case 2:
					s.Scan(key, 10)
				default:
					s.Insert(key, Record{"f": "new"})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSkipListOrderInvariant(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		l := newSkipList(stats.NewRNG(seed))
		inserted := map[string]bool{}
		for _, r := range raw {
			key := fmt.Sprintf("k%05d", r)
			l.set(key, Record{"v": "1"})
			inserted[key] = true
		}
		want := make([]string, 0, len(inserted))
		for k := range inserted {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		l.scanFrom("", func(k string, _ Record) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) || l.len() != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListDeleteInvariant(t *testing.T) {
	f := func(seed uint64, keys []uint8, dels []uint8) bool {
		l := newSkipList(stats.NewRNG(seed))
		model := map[string]bool{}
		for _, k := range keys {
			key := fmt.Sprintf("k%03d", k)
			l.set(key, Record{})
			model[key] = true
		}
		for _, d := range dels {
			key := fmt.Sprintf("k%03d", d)
			got := l.del(key)
			want := model[key]
			if got != want {
				return false
			}
			delete(model, key)
		}
		if l.len() != len(model) {
			return false
		}
		for k := range model {
			if _, ok := l.get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
