package weblog

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/stats"
)

func TestFormatParseRoundTrip(t *testing.T) {
	orders := tablegen.ReferenceTable(1, 500)
	recs, err := FromTable(stats.NewRNG(2), orders, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("records %d, want 100", len(recs))
	}
	for i, r := range recs {
		line := string(r.AppendFormat(nil))
		parsed, err := Parse(line)
		if err != nil {
			t.Fatalf("record %d: %v\nline: %s", i, err, line)
		}
		if parsed.IP != r.IP || parsed.User != r.User || parsed.Path != r.Path ||
			parsed.Status != r.Status || parsed.Bytes != r.Bytes ||
			parsed.Referer != r.Referer || parsed.Agent != r.Agent {
			t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", r, parsed)
		}
		if !parsed.Time.Equal(r.Time) {
			t.Fatalf("time mismatch: %v vs %v", parsed.Time, r.Time)
		}
	}
}

func TestSessionsInheritTableSkew(t *testing.T) {
	orders := tablegen.ReferenceTable(3, 3000)
	recs, err := FromTable(stats.NewRNG(4), orders, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// Product popularity in the logs should be skewed because the orders
	// table's product column is zipfian.
	ft := stats.NewFreqTable()
	for _, r := range recs {
		if strings.HasPrefix(r.Path, "/product/") {
			ft.Observe(r.Path)
		}
	}
	top := ft.TopK(1)
	if ft.Counts[top[0]] < ft.Total()/100 {
		t.Fatalf("top product page %d/%d hits: skew not inherited", ft.Counts[top[0]], ft.Total())
	}
}

func TestErrorRate(t *testing.T) {
	orders := tablegen.ReferenceTable(5, 500)
	recs, err := FromTable(stats.NewRNG(6), orders, 5000)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, r := range recs {
		if r.Status >= 400 {
			errs++
		}
	}
	frac := float64(errs) / float64(len(recs))
	if frac < 0.01 || frac > 0.03 {
		t.Fatalf("error fraction %.3f, want ~0.02", frac)
	}
}

func TestFromTableErrors(t *testing.T) {
	bad := data.NewTable(data.Schema{Name: "x", Cols: []data.Column{{Name: "a", Kind: data.KindInt}}})
	if _, err := FromTable(stats.NewRNG(1), bad, 10); err == nil {
		t.Fatal("table without required columns accepted")
	}
	empty := data.NewTable(tablegen.ReferenceSpec(1).Schema())
	if _, err := FromTable(stats.NewRNG(1), empty, 10); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1.2.3.4 - u",
		"1.2.3.4 - u noduration",
		`1.2.3.4 - u [bad] "GET / HTTP/1.1" 200 1 "-" "-"`,
		`1.2.3.4 - u [01/Mar/2014:00:00:00 +0000] GET / 200`,
		`1.2.3.4 - u [01/Mar/2014:00:00:00 +0000] "GETONLY" 200 1 "-" "-"`,
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Fatalf("malformed line accepted: %q", line)
		}
	}
}

// TestSourcePinned holds the strings newSource renders for every orders row
// to the digest they had when each was formatted on its own.
func TestSourcePinned(t *testing.T) {
	src, err := newSource(tablegen.ReferenceTableParallel(2014, 6000, 2))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range src {
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", r.ip, r.user, r.path)
	}
	if got, want := h.Sum64(), uint64(0x0a3c76a8e99b50cb); len(src) != 6000 || got != want {
		t.Fatalf("source moved: %d rows, digest %#x, want %#x", len(src), got, want)
	}
}

// TestFromTablePinned holds the serial generator's log lines to a digest; the
// corpus digests cover only the parallel path.
func TestFromTablePinned(t *testing.T) {
	recs, err := FromTable(stats.NewRNG(4), tablegen.ReferenceTable(3, 3000), 5000)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var line []byte
	for _, r := range recs {
		line = append(r.AppendFormat(line[:0]), '\n')
		h.Write(line)
	}
	if got, want := h.Sum64(), uint64(0xc3e3523f9b24cec5); len(recs) != 5000 || got != want {
		t.Fatalf("records moved: %d records, digest %#x, want %#x", len(recs), got, want)
	}
}
