package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartileSpread returns the distance between the first and the third
// quartile of vs as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives — the rule the driver accepts a
// benchmark by. It needs at least two values.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func readResultSet(path string) (resultSet, error) {
	var set resultSet
	raw, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// agreeFiles prints, for every end-to-end metric on every workload, both
// sets' medians and spreads, how much worse the second median is than the
// first, the bound, and a verdict. The timings and the peak resident set
// follow without bound or verdict: they are there to show why they carry
// none. It returns an
// error when any end-to-end pair disagrees by more than its bound or
// spreads wider than it.
func agreeFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%s)\nb: %s (%s)\n", pathA, a.Env, pathB, b.Env)
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %9s %9s %9s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "spread a", "spread b", "bound", "verdict")
	byName := map[string]workloadResults{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	bad := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, m := range append(append([]metricDef(nil), bench.EndToEnd...), bench.PerLayer...) {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			if m.Bound == 0 && len(va) == 0 {
				continue // a per-layer metric that untraced runs do not take
			}
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s: %s is missing from a result set", wa.Name, m.Name)
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			bound, verdict := fmt.Sprintf("%5.0f%%", 100*m.Bound), "ok"
			switch {
			case m.Bound == 0:
				bound, verdict = "     -", "-"
			case worse > m.Bound || -worse > m.Bound:
				verdict = "DISAGREE"
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "UNSTEADY"
			}
			if verdict == "DISAGREE" || verdict == "UNSTEADY" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %s  %s\n",
				wa.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of the pairs are outside their bound", bad)
	}
	fmt.Fprintln(w, "every end-to-end metric agrees within its bound on every workload")
	return nil
}
