// Package runstore makes benchmark runs first-class artifacts: a versioned
// columnar binary format ("run blob") that persists a run's full per-op
// latency streams alongside the metadata needed to compare runs later —
// spec digest, seed, corpus digests, achieved load and environment. Where
// the reporters summarize and discard, a blob keeps the evidence, so the
// question "did run B regress against run A?" can be answered from files
// (Compare) and any saved run can be re-rendered
// (internal/report.RenderRun).
//
// The encoding is mebo-style columnar: per-series timestamp and value
// columns, delta-of-delta varint timestamps, XOR-folded varint values,
// fixed-size index entries pointing into a shared names section, and a
// CRC32 trailer so torn or bit-flipped files fail loudly. Encoding is
// canonical — series sorted by (workload, op, substrate), samples by
// (offset, value) — so the blob a run produces does not depend on how many
// workers recorded its samples, and decode→re-encode is byte-identical.
package runstore

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sort"

	"github.com/bdbench/bdbench/internal/metrics"
)

// Version is the current blob format version. Decode accepts exactly this
// version: any change to the header, index layout or column encodings bumps
// it, and older readers reject newer blobs instead of misparsing them (see
// docs/RESULTS.md for the versioning policy).
const Version = 1

// The run kinds written by bdbench. Kind selects how Meta.Payload is
// interpreted when a saved run is re-rendered; Compare works on any kind.
const (
	// KindScenario is a scenario run: Payload holds the full scenario
	// Outcome JSON, and the series are the workloads' captured per-op
	// latency streams. A loadcurve sweep is one (an entry per rate).
	KindScenario = "scenario"
	// KindCorpus is a standalone corpus generation (`bdbench datagen -out`):
	// Payload holds the DataGenStat JSON and Meta.Corpora carries the
	// corpus digest — the provenance record for a generated dataset.
	KindCorpus = "corpus"
)

// Sample is one captured observation: a latency value at an offset from the
// run's start. Both are nanoseconds; Offset orders the stream, Value is
// what quantiles are computed from.
type Sample struct {
	Offset int64
	Value  int64
}

// Series is one operation's latency stream within a run, keyed by the
// workload that produced it and the operation label observed.
type Series struct {
	// Workload and Op key the series; Compare aligns series across runs by
	// this pair.
	Workload string
	Op       string
	// Substrate marks stack-internal echo streams (see metrics.OpStats).
	Substrate bool
	// Samples is the stream in canonical order (Encode sorts it).
	Samples []Sample
	// Dropped counts observations the capture buffer had no room for; the
	// stream is complete when it is zero.
	Dropped uint64
}

// SeriesOf converts one workload's captured latency streams to series: the
// one conversion behind both the run artifact and a distributed result
// frame, so merged shard series and local series are indistinguishable.
func SeriesOf(workload string, samples []metrics.OpSamples) []Series {
	if len(samples) == 0 {
		return nil
	}
	out := make([]Series, len(samples))
	for i, s := range samples {
		out[i] = Series{
			Workload:  workload,
			Op:        s.Op,
			Substrate: s.Substrate,
			Dropped:   s.Dropped,
			Samples:   make([]Sample, len(s.Values)),
		}
		for j := range s.Values {
			out[i].Samples[j] = Sample{Offset: s.Offsets[j], Value: s.Values[j]}
		}
	}
	return out
}

// Environment records where a run executed — the context a comparison
// should be read against.
type Environment struct {
	GoVersion string `json:"go,omitempty"`
	OS        string `json:"os,omitempty"`
	Arch      string `json:"arch,omitempty"`
	CPUs      int    `json:"cpus,omitempty"`
	MaxProcs  int    `json:"maxprocs,omitempty"`
}

// Corpus is one generated input corpus with its SHA-256 digest — the
// determinism contract (equal digests at any worker count) made durable.
type Corpus struct {
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
}

// WorkloadMeta summarizes one workload of the run for comparison: the
// throughput (closed-loop) or offered/achieved rates (open-loop) that
// per-op latency streams alone cannot carry.
type WorkloadMeta struct {
	Workload string `json:"workload"`
	Suite    string `json:"suite,omitempty"`
	Category string `json:"category,omitempty"`
	// Throughput is ops/s over the measured interval (closed-loop).
	Throughput float64 `json:"throughput,omitempty"`
	// ElapsedNs is the measured wall time in nanoseconds.
	ElapsedNs int64 `json:"elapsedNs,omitempty"`
	// Offered and Achieved carry the open-loop load rates; zero when the
	// workload ran closed-loop.
	Offered  float64 `json:"offered,omitempty"`
	Achieved float64 `json:"achieved,omitempty"`
	// Error is the failure message when the workload failed.
	Error string `json:"error,omitempty"`
}

// Meta is the run's metadata block, stored as JSON inside the blob.
type Meta struct {
	// Kind discriminates how Payload is interpreted (KindScenario,
	// KindCorpus, or a caller-defined kind).
	Kind string `json:"kind"`
	// Name labels the run (the scenario name, the swept workload, ...).
	Name string `json:"name,omitempty"`
	// Tool and ToolVersion identify the writer.
	Tool        string `json:"tool,omitempty"`
	ToolVersion string `json:"toolVersion,omitempty"`
	// SpecDigest is the SHA-256 of the normalized scenario spec JSON: two
	// runs are comparable like-for-like exactly when it matches.
	SpecDigest string `json:"specDigest,omitempty"`
	// Seed is the run's workload/schedule seed.
	Seed uint64 `json:"seed,omitempty"`
	// CreatedUnix is the wall-clock time the artifact was written.
	CreatedUnix int64 `json:"createdUnix,omitempty"`
	// Env records the executing machine and toolchain.
	Env Environment `json:"env"`
	// Corpora lists the generated input corpora with their digests, when
	// the producing flow computed them.
	Corpora []Corpus `json:"corpora,omitempty"`
	// Workloads summarizes every workload for throughput comparison.
	Workloads []WorkloadMeta `json:"workloads,omitempty"`
	// Degraded lists the slices of a distributed run whose results were
	// permanently lost (e.g. "shard 2/4 lost after 3 attempts: ..."); empty
	// for complete runs. A degraded blob is still a valid artifact — the
	// marker is what distinguishes "partial by failure" from "complete".
	Degraded []string `json:"degraded,omitempty"`
	// Payload is the kind-specific full result document (scenario Outcome,
	// DataGenStat), preserved verbatim so a saved run re-renders exactly as
	// the live one did.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Run is one decoded (or to-be-encoded) run artifact.
type Run struct {
	Meta   Meta
	Series []Series
}

// canonicalize sorts the series and their samples into the canonical order
// Encode writes: series by (workload, op, substrate), samples by (offset,
// value). Capture shards drain in arbitrary order and worker counts change
// how samples distribute across shards; canonical order is what makes the
// same logical run encode to the same bytes regardless.
func (r *Run) canonicalize() {
	for i := range r.Series {
		slices.SortFunc(r.Series[i].Samples, func(a, b Sample) int {
			if c := cmp.Compare(a.Offset, b.Offset); c != 0 {
				return c
			}
			return cmp.Compare(a.Value, b.Value)
		})
	}
	ss := r.Series
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].Workload != ss[b].Workload {
			return ss[a].Workload < ss[b].Workload
		}
		if ss[a].Op != ss[b].Op {
			return ss[a].Op < ss[b].Op
		}
		return !ss[a].Substrate && ss[b].Substrate
	})
}

// Merge folds a partial run into r: workload summaries, corpora and
// degraded markers are appended; series sharing a (workload, op, substrate)
// key have their sample streams concatenated and drop counts summed,
// exactly as one collector's shards fold at snapshot time. No new encoding
// is involved: Encode's canonicalization (series sorted by key, samples by
// (offset, value)) is what makes the merged blob's bytes independent of the
// order the parts arrive in. The distributed coordinator does not use it —
// it reassembles task results and builds one run from them (see
// docs/DISTRIBUTED.md); the repo benchmark measures it as runstore.merge_ms.
func (r *Run) Merge(shard *Run) {
	r.Meta.Workloads = append(r.Meta.Workloads, shard.Meta.Workloads...)
	r.Meta.Corpora = append(r.Meta.Corpora, shard.Meta.Corpora...)
	r.Meta.Degraded = append(r.Meta.Degraded, shard.Meta.Degraded...)
	for _, s := range shard.Series {
		if dst := r.findSeriesKey(s.Workload, s.Op, s.Substrate); dst != nil {
			dst.Samples = append(dst.Samples, s.Samples...)
			dst.Dropped += s.Dropped
			continue
		}
		cp := s
		cp.Samples = append([]Sample(nil), s.Samples...)
		r.Series = append(r.Series, cp)
	}
}

func (r *Run) findSeriesKey(workload, op string, substrate bool) *Series {
	for i := range r.Series {
		s := &r.Series[i]
		if s.Workload == workload && s.Op == op && s.Substrate == substrate {
			return s
		}
	}
	return nil
}

// Digest returns the hex SHA-256 of the run's canonical encoding — the
// stable identity of the artifact's contents. Same meta and same logical
// sample streams yield the same digest at any worker count.
func (r *Run) Digest() (string, error) {
	raw, err := Encode(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// DigestBytes returns the hex SHA-256 of an already-encoded blob.
func DigestBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
