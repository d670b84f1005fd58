package nosql

import (
	"fmt"
	"slices"
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
	if rec.Get("f0") != "a" || rec.Get("f1") != "b" || rec.Get("f2") != "" {
		t.Fatalf("read %v", rec)
	}
	if _, err := s.Read("missing", nil); err != ErrNotFound {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestReadProjection(t *testing.T) {
	s := Open(2, 1)
	s.Insert("k", Record{"a": "1", "b": "2", "c": "3"})
	for _, tc := range []struct {
		fields []string
		want   []Field
	}{
		{[]string{"a", "c", "zz"}, []Field{{"a", "1"}, {"c", "3"}}},
		{[]string{"c", "a"}, []Field{{"a", "1"}, {"c", "3"}}}, // name order, not the request's
		{[]string{"b", "b"}, []Field{{"b", "2"}}},             // named twice, returned once
		{[]string{"zz"}, []Field{}},                           // a field the record lacks
		{[]string{}, []Field{}},                               // no field: not the same as nil
		{nil, []Field{{"a", "1"}, {"b", "2"}, {"c", "3"}}},    // nil: the whole record
		{[]string{"a", "b", "c", "a"}, []Field{{"a", "1"}, {"b", "2"}, {"c", "3"}}},
	} {
		rec, err := s.Read("k", tc.fields)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.fields, tc.want) {
			t.Errorf("Read(k, %q) = %v, want %v", tc.fields, rec.fields, tc.want)
		}
	}
	if _, err := s.Read("missing", []string{"a"}); err != ErrNotFound {
		t.Fatalf("projection of a missing key: err = %v", err)
	}
}

// TestReadRowSurvivesWrites: the Row a Read returned is the stored one, and
// stays what it was through every kind of write to its key.
func TestReadRowSurvivesWrites(t *testing.T) {
	s := Open(2, 1)
	writes := map[string]func(k string){
		"insert": func(k string) { s.Insert(k, Record{"a": "inserted"}) },
		"update": func(k string) {
			if err := s.Update(k, Record{"a": "updated", "b": "added"}); err != nil {
				t.Fatal(err)
			}
		},
		"rmw": func(k string) {
			if err := s.ReadModifyWrite(k, func(r Record) Record { r["a"] = "rmw"; return r }); err != nil {
				t.Fatal(err)
			}
		},
		"delete": func(k string) {
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		},
	}
	for k, write := range writes {
		s.Insert(k, Record{"a": "1", "c": "3"})
		rec, err := s.Read(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		write(k)
		if want := []Field{{"a", "1"}, {"c", "3"}}; !slices.Equal(rec.fields, want) {
			t.Errorf("after %s: the row read before it is %v, want %v", k, rec.fields, want)
		}
		if again, err := s.Read(k, nil); err == nil && again.Get("a") == "1" {
			t.Errorf("after %s: the store still reads the old value", k)
		}
	}
}

func TestInsertClonesInput(t *testing.T) {
	s := Open(2, 1)
	in := Record{"a": "1"}
	s.Insert("k", in)
	in["a"] = "mutated"
	delete(in, "a")
	got, _ := s.Read("k", nil)
	if got.Get("a") != "1" {
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
	if want := []Field{{"a", "1"}, {"b", "20"}, {"c", "30"}}; !slices.Equal(rec.fields, want) {
		t.Fatalf("merged %v, want %v", rec.fields, want)
	}
	// New names land in name order wherever they fall: first, between, last.
	if err := s.Update("k", Record{"bb": "5", "0": "4", "z": "6", "a": "10"}); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.Read("k", nil)
	if want := []Field{{"0", "4"}, {"a", "10"}, {"b", "20"}, {"bb", "5"}, {"c", "30"}, {"z", "6"}}; !slices.Equal(rec.fields, want) {
		t.Fatalf("merged %v, want %v", rec.fields, want)
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
	if rec.Get("n") != "10" {
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
			l.set(key, rowOf(Record{"v": "1"}, new(slab[Field])))
			inserted[key] = true
		}
		want := make([]string, 0, len(inserted))
		for k := range inserted {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		l.scanFrom("", func(k string, _ Row) bool {
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
			l.set(key, Row{})
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
			if l.find(k) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
