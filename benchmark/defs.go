package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported number.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; per-layer metrics have
	// none.
	Bound float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json at the root of the repository: the one
// place where the workloads' names and reasons and every metric's name,
// unit, direction and bound are written down. The harness reads them from
// there, so what it reports and what the file declares cannot drift apart.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd is what a user of bdbench sees, reported by every workload
	// from the untraced pass. PerLayer is the ledger underneath, one group
	// per package of the program, reported from the traced pass; a workload
	// that does not reach a layer reports 0 for it.
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// bench is BENCHMARK.json, read once at start-up.
var bench benchmarkFile

// loadBenchmarkFile reads path into bench and checks that the file and the
// runners in workloads.go name the same workloads.
func loadBenchmarkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Workloads) != len(runners) {
		return fmt.Errorf("%s lists %d workloads, the harness runs %d", path, len(b.Workloads), len(runners))
	}
	for _, w := range b.Workloads {
		if _, ok := runners[w.Name]; !ok {
			return fmt.Errorf("%s lists workload %q, which the harness cannot run", path, w.Name)
		}
	}
	bench = b
	return nil
}
