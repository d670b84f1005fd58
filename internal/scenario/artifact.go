package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/bdbench/bdbench/internal/runstore"
)

// SpecDigest returns the hex SHA-256 of the normalized spec's JSON — the
// like-for-like comparability key stored in every run artifact: two blobs
// with equal digests ran the same scenario (same entries, scale, seed,
// repetition and load settings), so their deltas are measurement, not
// configuration.
func SpecDigest(s Spec) (string, error) {
	raw, err := json.Marshal(s.Normalized())
	if err != nil {
		return "", fmt.Errorf("scenario: digest spec: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// CaptureEnv snapshots the executing toolchain and machine for run metadata.
func CaptureEnv() runstore.Environment {
	return runstore.Environment{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
}

// BuildArtifact converts a finished scenario outcome into a runstore.Run:
// metadata (spec digest, seed, environment, per-workload summaries), the
// full Outcome JSON as the payload so reporters can re-render the saved run
// exactly, and one series per captured per-op latency stream. toolVersion
// identifies the writing binary (bdbench.Version via the public API). It is
// stamped with the wall clock; a scenario run restamps it with its own.
func BuildArtifact(out *Outcome, toolVersion string) (*runstore.Run, error) {
	digest, err := SpecDigest(out.Spec)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal outcome: %w", err)
	}
	run := &runstore.Run{
		Meta: runstore.Meta{
			Kind:        runstore.KindScenario,
			Name:        out.Spec.Name,
			Tool:        "bdbench",
			ToolVersion: toolVersion,
			SpecDigest:  digest,
			Seed:        out.Spec.Seed,
			CreatedUnix: time.Now().Unix(),
			Env:         CaptureEnv(),
			Degraded:    out.Degraded,
			Payload:     payload,
		},
	}
	AppendOutcome(run, out)
	return run, nil
}

// AppendOutcome appends out's per-workload metadata and captured latency
// streams to the artifact. This is the one place names enter an artifact,
// so it keeps them unique within the run: a result keeps its bare workload
// name unless an earlier result already has it, and then becomes name#2,
// name#3, … in result order — for its WorkloadMeta and all its series
// alike. Compare aligns two runs by these names, so the same workload at
// three rates (or in two entries) stays three streams, judged pairwise.
func AppendOutcome(run *runstore.Run, out *Outcome) {
	used := map[string]bool{}
	for _, w := range run.Meta.Workloads {
		used[w.Workload] = true
	}
	for i := range out.Results {
		r := &out.Results[i]
		name := r.Workload
		for k := 2; used[name]; k++ {
			name = fmt.Sprintf("%s#%d", r.Workload, k)
		}
		used[name] = true
		wm := runstore.WorkloadMeta{
			Workload:   name,
			Suite:      r.Suite,
			Category:   string(r.Category),
			Throughput: r.Result.Throughput,
			ElapsedNs:  int64(r.Result.Elapsed),
			Error:      r.Error,
		}
		if r.Load != nil {
			wm.Offered = r.Load.Offered
			wm.Achieved = r.Load.Achieved
		}
		run.Meta.Workloads = append(run.Meta.Workloads, wm)
		run.Series = append(run.Series, runstore.SeriesOf(name, r.Result.Samples)...)
	}
}

// writeArtifact builds and writes the run blob for a finished outcome —
// the bracket at the end of every scenario run that has a RunOutput path —
// stamped createdUnix on the run's clock.
func writeArtifact(path string, out *Outcome, toolVersion string, createdUnix int64) error {
	run, err := BuildArtifact(out, toolVersion)
	if err != nil {
		return err
	}
	run.Meta.CreatedUnix = createdUnix
	if err := runstore.WriteFile(path, run); err != nil {
		return fmt.Errorf("scenario: run output: %w", err)
	}
	return nil
}
