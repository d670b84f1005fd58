// Package scenario is the composition layer of the public bdbench API: a
// declarative, JSON-round-trippable Scenario spec that selects workloads
// *across* suite inventories (by suite, name, category, domain or stack,
// with per-entry scale/seed/reps overrides), a registry where suites and
// workloads are addressable by name, and a runner that drives the paper's
// five-step benchmarking process over the selection on the concurrent
// execution engine.
//
// Running a whole suite is a one-entry scenario that selects it. Defaulting
// happens in one place — Normalized — and Validate rejects everything else
// (negative sizes, unknown names, empty selections) instead of silently
// rewriting it.
//
// Spec v2 makes the layer compositional: an Entry may, instead of
// selecting registered workloads, declare an operation Pattern — a
// weighted mix of primitive operations over a named corpus, compiled by
// internal/opcompose into a synthetic workload — and the open-loop fields
// gain a "replay" arrival whose schedule is resampled from a recorded
// trace (the Trace field names the corpus it is extracted from). A spec
// without a specVersion is a v1 spec and parses unchanged; Normalized
// upgrades every spec to the v2 shape, so the rest of the pipeline sees
// exactly one format.
package scenario

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
	_ "github.com/bdbench/bdbench/internal/datagen/corpora" // traces and patterns resolve builtin corpora by name
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Duration is a time.Duration that round-trips through JSON as a string
// ("30s", "2m"); plain nanosecond numbers are accepted on input.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(raw, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string like %q or nanoseconds: %s", "30s", raw)
	}
	*d = Duration(ns)
	return nil
}

// Entry is one selection of the spec: it picks workloads from a suite's
// inventory or from the registry at large, optionally narrowed by name,
// category, application domain or stack type — or, with Pattern set,
// composes a synthetic workload from primitive operations instead of
// selecting one.
//
// Every override field follows the one inheritance rule (see inherit): a
// field left at its zero value inherits the scenario-wide value, a
// non-zero field overrides it for this entry's workloads. The rule covers
// all three override clusters — execution (Scale, Workers, Seed, Reps),
// open-loop load (Rate, Arrival, Duration, Trace) and composition
// (Pattern, which is per-entry only and never inherited).
type Entry struct {
	// Suite selects from the named suite's inventory; empty means the whole
	// workload registry.
	Suite string `json:"suite,omitempty"`
	// Workload picks a single workload by name.
	Workload string `json:"workload,omitempty"`
	// Category narrows to one of the paper's three workload categories
	// ("online services", "offline analytics", "real-time analytics").
	Category string `json:"category,omitempty"`
	// Domain narrows to one application domain (e.g. "micro", "search
	// engine", "cloud OLTP").
	Domain string `json:"domain,omitempty"`
	// Stack narrows to workloads that run on the given stack type
	// ("mapreduce", "dbms", "nosql", "streaming", "graph").
	Stack string `json:"stack,omitempty"`

	// Pattern (spec v2) composes a synthetic workload from a weighted mix
	// of primitive operations over a registered corpus instead of selecting
	// registered workloads; it is mutually exclusive with the selection
	// fields above. See opcompose.Pattern for the shape.
	Pattern *opcompose.Pattern `json:"pattern,omitempty"`

	// Scale, Workers, Seed and Reps override the scenario-wide settings for
	// this entry's workloads. Zero inherits.
	Scale   int    `json:"scale,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Reps    int    `json:"reps,omitempty"`

	// Rate, Arrival, Duration and Trace override the scenario-wide
	// open-loop load settings for this entry's workloads (see the Spec
	// fields of the same names). Zero inherits; a positive Rate on an entry
	// switches its workloads to open-loop mode even when the scenario is
	// closed-loop.
	Rate     float64  `json:"rate,omitempty"`
	Arrival  string   `json:"arrival,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	Trace    string   `json:"trace,omitempty"`
}

// describe renders the entry's selection for error messages.
func (e Entry) describe() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("suite", e.Suite)
	add("workload", e.Workload)
	add("category", e.Category)
	add("domain", e.Domain)
	add("stack", e.Stack)
	if e.Pattern != nil {
		parts = append(parts, "pattern="+e.Pattern.Name)
	}
	if len(parts) == 0 {
		return "select-all"
	}
	return strings.Join(parts, " ")
}

// pick returns the override when it is set (non-zero) and the inherited
// scenario-wide value otherwise. This one function is the entire
// inheritance rule.
func pick[T comparable](override, inherited T) T {
	var zero T
	if override != zero {
		return override
	}
	return inherited
}

// inherit resolves the entry against the normalized scenario: every
// override field at its zero value takes the scenario-wide value, every
// non-zero field wins. All three override clusters — execution
// (Scale/Workers/Seed/Reps), open-loop load (Rate/Arrival/Duration/Trace)
// and composition (Pattern, per-entry only) — go through this single
// helper, so the inheritance rule cannot drift between clusters.
func (e Entry) inherit(n Spec) Entry {
	e.Scale = pick(e.Scale, n.Scale)
	e.Workers = pick(e.Workers, n.Workers)
	e.Seed = pick(e.Seed, n.Seed)
	e.Reps = pick(e.Reps, n.Reps)
	e.Rate = pick(e.Rate, n.Rate)
	e.Arrival = pick(e.Arrival, n.Arrival)
	e.Duration = pick(e.Duration, n.Duration)
	e.Trace = pick(e.Trace, n.Trace)
	return e
}

// Spec is a declarative benchmark scenario: what to run (Entries) and how
// to run it (scale, seed, engine settings, metric models). The zero value
// of every "how" field means "use the default"; Normalized fills defaults
// exactly once and Validate reports the normalized values it will run with.
type Spec struct {
	// SpecVersion is the spec format version. Absent (zero) means v1 — the
	// pre-composition format, which parses unchanged; 2 is the current
	// format with pattern entries and trace replay. Normalized always
	// upgrades to 2 (v2 is a strict superset), so the rest of the pipeline
	// sees one shape; an explicit 1 combined with v2-only features is an
	// error.
	SpecVersion int `json:"specVersion,omitempty"`
	// Name labels the scenario in reports (the Planning step's
	// "benchmarking object").
	Name string `json:"name,omitempty"`
	// Entries compose the workload selection; they may mix rows from any
	// number of suites and registry-level workloads.
	Entries []Entry `json:"entries"`

	// Scale is the per-workload input size knob (default 1).
	Scale int `json:"scale,omitempty"`
	// Workers is the parallelism of the simulated stack inside each
	// workload (default 4).
	Workers int `json:"workers,omitempty"`
	// DatagenWorkers bounds the chunk-parallel data-generation pipeline
	// preparing each workload's input (default: one per CPU). Generated
	// bytes are identical at any setting — chunk RNGs derive from (seed,
	// chunk index) — so it is a pure speed knob.
	DatagenWorkers int `json:"datagenWorkers,omitempty"`
	// Seed makes workload outputs deterministic (default 0).
	Seed uint64 `json:"seed,omitempty"`

	// Rate, when positive, switches every selected workload to open-loop
	// load generation: executions are dispatched at the arrival process's
	// intended start times at this mean offered rate (operations per
	// second), independently of completions, and latency is recorded from
	// the intended start so queueing delay is never hidden by coordinated
	// omission. Zero (the default) keeps the closed-loop reps mode.
	Rate float64 `json:"rate,omitempty"`
	// Arrival names the arrival process shaping the open-loop schedule:
	// "constant", "poisson", "bursty", "ramp" or "replay" (default
	// "constant"). Setting it without a Rate anywhere in the spec is an
	// error.
	Arrival string `json:"arrival,omitempty"`
	// Duration is the open-loop scheduling window (default 10s when Rate is
	// set). Setting it without a Rate anywhere in the spec is an error.
	Duration Duration `json:"duration,omitempty"`
	// Trace (spec v2) names the registered corpus the "replay" arrival
	// extracts its recorded schedule from (default "weblog" when a replay
	// arrival is in play). Setting it with a non-replay arrival — or, like
	// Arrival, without a Rate anywhere in the spec — is an error.
	Trace string `json:"trace,omitempty"`

	// Parallel bounds how many workloads the engine runs concurrently
	// (default: one per CPU).
	Parallel int `json:"parallel,omitempty"`
	// Reps is the measured repetitions per workload (default 1); the median
	// repetition is reported.
	Reps int `json:"reps,omitempty"`
	// Warmup is the number of unmeasured runs per workload (default 0).
	Warmup int `json:"warmup,omitempty"`
	// Timeout bounds each individual run; zero disables it.
	Timeout Duration `json:"timeout,omitempty"`

	// Energy and Cost annotate results with §3.1's non-performance metrics;
	// zero models disable them. The omitzero option is a Go 1.24
	// refinement: on Go 1.23 (the module's minimum) it is ignored and zero
	// models serialize as explicit zero-valued objects — cosmetically
	// noisier, parsed and validated identically.
	Energy metrics.EnergyModel `json:"energy,omitzero"`
	Cost   metrics.CostModel   `json:"cost,omitzero"`
}

// Parse decodes a JSON scenario spec strictly: unknown fields are errors,
// so typos in spec files surface instead of silently selecting nothing.
func Parse(raw []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return s, nil
}

// MarshalIndent encodes the spec as indented JSON; Parse(MarshalIndent(s))
// round-trips.
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Normalized returns the spec with every defaultable zero field filled:
// scale 1, stack workers 4, one engine worker per CPU, one repetition. It
// also upgrades the spec to v2 — SpecVersion is stamped to 2, pattern
// entries get their own defaults (opcompose.Pattern.Normalized) and names,
// and a replay arrival defaults its trace corpus — so everything
// downstream sees exactly one spec shape. This is the single place
// defaults are applied: execution uses exactly these values, and Validate
// reports them.
func (s Spec) Normalized() Spec {
	s.SpecVersion = 2
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Workers == 0 {
		s.Workers = 4
	}
	if s.DatagenWorkers == 0 {
		s.DatagenWorkers = runtime.GOMAXPROCS(0)
	}
	if s.Parallel == 0 {
		s.Parallel = runtime.GOMAXPROCS(0)
	}
	if s.Reps == 0 {
		s.Reps = 1
	}
	if s.openLoop() {
		if s.Arrival == "" {
			s.Arrival = loadgen.Constant{}.Name()
		}
		if s.Duration == 0 {
			s.Duration = Duration(DefaultLoadWindow)
		}
	}
	if s.Trace == "" && s.replayInPlay() {
		s.Trace = opcompose.DefaultCorpus
	}
	if s.hasPatterns() {
		// Copy before rewriting: the entries slice shares its backing array
		// with the caller's spec.
		entries := append([]Entry(nil), s.Entries...)
		for i := range entries {
			if entries[i].Pattern == nil {
				continue
			}
			p := entries[i].Pattern.Normalized()
			if p.Name == "" {
				p.Name = fmt.Sprintf("composed-%d", i)
			}
			entries[i].Pattern = &p
		}
		s.Entries = entries
	}
	return s
}

// replayInPlay reports whether any part of the spec asks for the
// trace-replay arrival process.
func (s Spec) replayInPlay() bool {
	if s.Arrival == "replay" {
		return true
	}
	for _, e := range s.Entries {
		if e.Arrival == "replay" {
			return true
		}
	}
	return false
}

// hasPatterns reports whether any entry composes a pattern workload.
func (s Spec) hasPatterns() bool {
	for _, e := range s.Entries {
		if e.Pattern != nil {
			return true
		}
	}
	return false
}

// usesV2 reports whether the spec uses any feature that requires the v2
// format: pattern entries, trace fields, or the replay arrival.
func (s Spec) usesV2() bool {
	if s.Trace != "" || s.hasPatterns() || s.replayInPlay() {
		return true
	}
	for _, e := range s.Entries {
		if e.Trace != "" {
			return true
		}
	}
	return false
}

// DefaultLoadWindow is the open-loop scheduling window used when a spec
// sets a rate without a duration.
const DefaultLoadWindow = 10 * time.Second

// ShardIndices returns the global task indices shard (index, count) owns:
// every count-th index starting at index. The shards of a run partition
// [0, total) exactly — no index is owned twice or dropped — which is what
// lets a coordinator reassemble per-shard results into the single-process
// task order.
func ShardIndices(total, index, count int) []int {
	if count <= 1 {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	for i := index; i < total; i += count {
		out = append(out, i)
	}
	return out
}

// Shard returns the tasks of a full resolution that shard (index, count)
// owns — tasks[g] for each g in ShardIndices — so shard-local task k is
// always global task ShardIndices(total, index, count)[k], with its Entry
// and Suite provenance intact. Placement is not part of a spec: it arrives
// on the wire next to one, so it is checked here, where an agent applies it.
func Shard(tasks []Task, index, count int) ([]Task, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("scenario: shard %d/%d out of range", index, count)
	}
	indices := ShardIndices(len(tasks), index, count)
	kept := make([]Task, len(indices))
	for k, g := range indices {
		kept[k] = tasks[g]
	}
	return kept, nil
}

// openLoop reports whether any part of the spec asks for open-loop load
// generation (a positive scenario-wide or per-entry rate).
func (s Spec) openLoop() bool {
	if s.Rate > 0 {
		return true
	}
	for _, e := range s.Entries {
		if e.Rate > 0 {
			return true
		}
	}
	return false
}

// String summarizes the normalized run settings.
func (s Spec) String() string {
	n := s.Normalized()
	desc := fmt.Sprintf("scenario %q: %d entries, scale=%d workers=%d datagen=%d seed=%d parallel=%d reps=%d warmup=%d timeout=%v",
		n.Name, len(n.Entries), n.Scale, n.Workers, n.DatagenWorkers, n.Seed, n.Parallel, n.Reps, n.Warmup, time.Duration(n.Timeout))
	if n.openLoop() {
		desc += fmt.Sprintf(" rate=%g arrival=%s duration=%v", n.Rate, n.Arrival, time.Duration(n.Duration))
	}
	return desc
}

// Validate checks the spec against the registry (nil means Default())
// without running anything: negative sizes and overrides are rejected (a
// zero means "default", a negative is always a mistake), every named
// suite, workload, category and stack must exist, and every entry must
// select at least one workload. Error messages report the normalized
// values the scenario would run with.
func (s Spec) Validate(reg *Registry) error {
	_, err := s.Tasks(reg)
	return err
}

// Task is one resolved workload execution — the engine task itself (its
// per-entry Reps override and, for open-loop entries, the resolved Load) —
// with its provenance.
type Task struct {
	engine.Task
	// Entry indexes the spec entry that selected this workload.
	Entry int
	// Suite is the inventory the workload was selected from ("" for
	// registry-level selections).
	Suite string
}

// EngineInputs turns a normalized spec and its resolved tasks into what the
// engine runs: the task list and the configuration the spec determines.
// Local runs and agents both start from it and add only what belongs to the
// process (event sink, clock, capture bound).
func (s Spec) EngineInputs(tasks []Task) ([]engine.Task, engine.Config) {
	engTasks := make([]engine.Task, len(tasks))
	for i, t := range tasks {
		engTasks[i] = t.Task
	}
	return engTasks, engine.Config{
		Workers: s.Parallel,
		Reps:    s.Reps,
		Warmup:  s.Warmup,
		Timeout: time.Duration(s.Timeout),
	}
}

// categoryOf validates a category filter string.
func categoryOf(s string) (workloads.Category, error) {
	switch c := workloads.Category(s); c {
	case workloads.Online, workloads.Offline, workloads.Realtime:
		return c, nil
	default:
		return "", fmt.Errorf("unknown category %q (valid: %q, %q, %q)",
			s, workloads.Online, workloads.Offline, workloads.Realtime)
	}
}

// stackOf validates a stack filter string.
func stackOf(s string) (stacks.Type, error) {
	switch t := stacks.Type(s); t {
	case stacks.TypeMapReduce, stacks.TypeDBMS, stacks.TypeNoSQL, stacks.TypeStreaming, stacks.TypeGraph:
		return t, nil
	default:
		return "", fmt.Errorf("unknown stack %q (valid: %q, %q, %q, %q, %q)", s,
			stacks.TypeMapReduce, stacks.TypeDBMS, stacks.TypeNoSQL, stacks.TypeStreaming, stacks.TypeGraph)
	}
}

// Tasks resolves the normalized spec against the registry into concrete
// engine work: one Task per selected workload, in entry order, with
// per-entry overrides applied. It returns the errors Validate documents.
// A nil registry means Default(), matching Run.
func (s Spec) Tasks(reg *Registry) ([]Task, error) {
	if reg == nil {
		reg = Default()
	}
	switch s.SpecVersion {
	case 0, 1, 2:
	default:
		return nil, fmt.Errorf("scenario: unsupported specVersion %d (latest: 2)", s.SpecVersion)
	}
	if s.SpecVersion == 1 && s.usesV2() {
		return nil, fmt.Errorf("scenario: spec declares specVersion 1 but uses v2 features " +
			"(pattern entries, trace, or the replay arrival); declare specVersion 2 or drop the version")
	}
	n := s.Normalized()
	if n.Scale < 0 || n.Workers < 0 || n.DatagenWorkers < 0 || n.Parallel < 0 || n.Reps < 0 || n.Warmup < 0 || n.Timeout < 0 {
		return nil, fmt.Errorf("scenario: negative run settings in %s", n)
	}
	if n.Rate < 0 || n.Duration < 0 {
		return nil, fmt.Errorf("scenario: negative load settings (rate=%g duration=%v) in %s",
			n.Rate, time.Duration(n.Duration), n)
	}
	// Load-cluster validation, scenario level. The raw fields are checked —
	// Normalized legitimately fills arrival/duration/trace defaults when
	// some rate put the spec in open-loop mode. The entry level runs the
	// identical check through the same helper in resolveLoad.
	if !n.openLoop() {
		if err := loadClusterErr(s.Arrival, s.Duration, s.Trace); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	if n.Arrival != "" {
		if _, err := loadgen.ParseProcess(n.Arrival); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Trace != "" && !n.replayInPlay() {
		return nil, fmt.Errorf("scenario: trace=%q set with arrival=%q; a trace requires the \"replay\" arrival",
			s.Trace, n.Arrival)
	}
	if len(n.Entries) == 0 {
		return nil, fmt.Errorf("scenario: empty selection: %s has no entries", n)
	}
	var tasks []Task
	for i, e := range n.Entries {
		if e.Scale < 0 || e.Workers < 0 || e.Reps < 0 {
			return nil, fmt.Errorf("scenario: entry %d (%s): negative override (scale=%d workers=%d reps=%d)",
				i, e.describe(), e.Scale, e.Workers, e.Reps)
		}
		if e.Rate < 0 || e.Duration < 0 {
			return nil, fmt.Errorf("scenario: entry %d (%s): negative load override (rate=%g duration=%v)",
				i, e.describe(), e.Rate, time.Duration(e.Duration))
		}
		r := e.inherit(n)
		load, err := resolveLoad(e, r)
		if err != nil {
			return nil, fmt.Errorf("scenario: entry %d (%s): %w", i, e.describe(), err)
		}
		resolved, err := resolveEntry(e, reg)
		if err != nil {
			return nil, fmt.Errorf("scenario: entry %d (%s): %w", i, e.describe(), err)
		}
		if len(resolved) == 0 {
			return nil, fmt.Errorf("scenario: entry %d (%s): selects no workloads", i, e.describe())
		}
		params := workloads.Params{Seed: r.Seed, Scale: r.Scale, Workers: r.Workers, DatagenWorkers: n.DatagenWorkers}
		if load != nil {
			load.Seed = params.Seed
		}
		for _, c := range resolved {
			tasks = append(tasks, Task{
				Task:  engine.Task{Workload: c.w, Category: c.cat, Params: params, Reps: e.Reps, Load: load},
				Entry: i,
				Suite: e.Suite,
			})
		}
	}
	return tasks, nil
}

// loadClusterErr is the load-cluster validation shared by the scenario and
// entry levels: arrival, duration and trace are meaningless without a rate
// putting their scope in open-loop mode, and silently ignoring them would
// hide a misconfigured spec. Both levels report the identical condition.
func loadClusterErr(arrival string, d Duration, trace string) error {
	if arrival == "" && d == 0 && trace == "" {
		return nil
	}
	return fmt.Errorf("load settings (arrival=%q duration=%v trace=%q) set without a rate; "+
		"set rate on the scenario or an entry to enable open-loop load generation",
		arrival, time.Duration(d), trace)
}

// resolveLoad returns the open-loop options for an entry's tasks — nil when
// the entry runs closed-loop. raw is the entry as declared and r its
// resolved view (see Entry.inherit); raw drives validation so an entry
// declaring arrival/duration/trace while its effective rate stays zero is
// rejected exactly like the same declaration at scenario level. The seed is
// filled by the caller (it follows the same inheritance as Params.Seed).
func resolveLoad(raw, r Entry) (*loadgen.Options, error) {
	if r.Rate == 0 {
		if err := loadClusterErr(raw.Arrival, raw.Duration, raw.Trace); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if raw.Trace != "" && r.Arrival != "replay" {
		return nil, fmt.Errorf("trace=%q set with arrival=%q; a trace requires the \"replay\" arrival",
			raw.Trace, r.Arrival)
	}
	proc, err := loadgen.ParseProcess(r.Arrival)
	if err != nil {
		return nil, err
	}
	if replay, ok := proc.(loadgen.Replay); ok {
		tr, err := traceFor(r.Trace, r.Seed)
		if err != nil {
			return nil, err
		}
		replay.Trace = tr
		proc = replay
	}
	return &loadgen.Options{Rate: r.Rate, Arrival: proc, Duration: time.Duration(r.Duration)}, nil
}

// traceCache memoizes extracted traces per (corpus, seed): extraction
// builds the corpus at scale 1, which is worth doing exactly once per
// process per key.
var traceCache sync.Map

// traceFor builds the named corpus at scale 1 with the given seed and
// extracts its arrival trace — the timestamp sequence a replay arrival
// materializes schedules from.
func traceFor(corpus string, seed uint64) (loadgen.Trace, error) {
	if corpus == "" {
		corpus = opcompose.DefaultCorpus
	}
	key := fmt.Sprintf("%s@%d", corpus, seed)
	if v, ok := traceCache.Load(key); ok {
		return v.(loadgen.Trace), nil
	}
	cg, ok := datagen.Lookup(corpus)
	if !ok {
		return loadgen.Trace{}, fmt.Errorf("unknown trace corpus %q (have: %s)",
			corpus, strings.Join(datagen.Generators(), ", "))
	}
	raw, _, err := datagen.Build(cg, seed, 1, 0)
	if err != nil {
		return loadgen.Trace{}, fmt.Errorf("trace corpus %q: %w", corpus, err)
	}
	tr, err := loadgen.TraceFromLog(corpus, raw)
	if err != nil {
		return loadgen.Trace{}, err
	}
	traceCache.Store(key, tr)
	return tr, nil
}

// candidate pairs a workload with the category it was selected under (the
// suite row's category when suite-selected, the workload's own otherwise).
type candidate struct {
	w   workloads.Workload
	cat workloads.Category
}

func resolveEntry(e Entry, reg *Registry) ([]candidate, error) {
	if e.Pattern != nil {
		// A pattern entry declares its workload inline; mixing it with the
		// registry-selection fields would make the selection ambiguous.
		if e.Suite != "" || e.Workload != "" || e.Category != "" || e.Domain != "" || e.Stack != "" {
			return nil, fmt.Errorf("pattern entry cannot also select by suite/workload/category/domain/stack")
		}
		w, err := opcompose.Compile(*e.Pattern)
		if err != nil {
			return nil, err
		}
		return []candidate{{w: w, cat: w.Category()}}, nil
	}
	var pool []candidate
	if e.Suite != "" {
		suite, ok := reg.Suite(e.Suite)
		if !ok {
			return nil, fmt.Errorf("unknown suite %q (have: %s)", e.Suite, strings.Join(reg.SuiteNames(), ", "))
		}
		for _, row := range suite.Rows {
			for _, w := range row.Runners {
				pool = append(pool, candidate{w: w, cat: row.Category})
			}
		}
	} else if e.Workload != "" {
		w, ok := reg.Workload(e.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", e.Workload)
		}
		pool = []candidate{{w: w, cat: w.Category()}}
	} else {
		for _, w := range reg.Workloads() {
			pool = append(pool, candidate{w: w, cat: w.Category()})
		}
	}

	var wantCat workloads.Category
	if e.Category != "" {
		c, err := categoryOf(e.Category)
		if err != nil {
			return nil, err
		}
		wantCat = c
	}
	var wantStack stacks.Type
	if e.Stack != "" {
		t, err := stackOf(e.Stack)
		if err != nil {
			return nil, err
		}
		wantStack = t
	}

	var out []candidate
	for _, c := range pool {
		if e.Workload != "" && c.w.Name() != e.Workload {
			continue
		}
		if wantCat != "" && c.cat != wantCat {
			continue
		}
		if e.Domain != "" && c.w.Domain() != e.Domain {
			continue
		}
		if wantStack != "" && !hasStack(c.w, wantStack) {
			continue
		}
		out = append(out, c)
	}
	if e.Suite != "" && e.Workload != "" && len(out) == 0 {
		return nil, fmt.Errorf("workload %q is not in suite %q", e.Workload, e.Suite)
	}
	return out, nil
}

func hasStack(w workloads.Workload, t stacks.Type) bool {
	for _, st := range w.StackTypes() {
		if st == t {
			return true
		}
	}
	return false
}
