package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// expected.json holds, for each run it describes — a seed, a measuring time
// and whether the scales were small — the outputs every workload must
// produce: operation counts, the composed pattern's digest, corpus digests,
// scheduled arrivals, series and sample counts. It is written by
// `go run ./benchmark -write-expected` and read on every run.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Runs []expectedRun `json:"runs"`
}

type expectedRun struct {
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Small   bool    `json:"small"`
	// Workloads maps workload name to fact name to value.
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// find returns the run with these inputs, or nil.
func (e *expectedFile) find(seed uint64, seconds float64, small bool) *expectedRun {
	for i, r := range e.Runs {
		if r.Seed == seed && r.Seconds == seconds && r.Small == small {
			return &e.Runs[i]
		}
	}
	return nil
}

// checkExpected compares a run's facts with expected.json when the file
// describes a run with the same inputs. Traced or not makes no difference:
// the timed part of a traced run offers the same windows.
func checkExpected(h *harness, facts map[string]string) {
	e, err := loadExpected()
	if err != nil {
		h.problem("%v", err)
		return
	}
	run := e.find(h.opts.seed, h.opts.seconds, h.opts.small)
	if run == nil {
		return
	}
	want, ok := run.Workloads[h.opts.workload]
	if !ok {
		h.problem("expected.json has no entry for %s", h.opts.workload)
		return
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got := facts[k]; got != want[k] {
			h.problem("%s: %s = %q, expected.json says %q", h.opts.workload, k, got, want[k])
		}
	}
	for k := range facts {
		if _, ok := want[k]; !ok {
			h.problem("%s: %s is not in expected.json", h.opts.workload, k)
		}
	}
}

// recordExpected writes the facts of a result set's first runs into the
// expected file at path, as the run with opts' inputs, replacing an earlier
// record of the same inputs.
func recordExpected(path string, opts options, set resultSet) error {
	e, err := loadExpected()
	if err != nil {
		return err
	}
	run := e.find(opts.seed, opts.seconds, opts.small)
	if run == nil {
		e.Runs = append(e.Runs, expectedRun{Seed: opts.seed, Seconds: opts.seconds, Small: opts.small})
		run = &e.Runs[len(e.Runs)-1]
	}
	run.Workloads = map[string]map[string]string{}
	for _, wr := range set.Workloads {
		run.Workloads[wr.Name] = wr.Runs[0].Detail.Facts
	}
	return writeJSON(path, e)
}
