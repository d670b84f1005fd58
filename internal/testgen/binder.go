package testgen

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/dbms"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stacks/nosql"
	"github.com/bdbench/bdbench/internal/stats"
)

// Executor stages a dataset in a concrete stack and applies abstract
// operations with that stack's native mechanisms (client-side glue is used
// where a stack has no native equivalent, as real benchmark kits do).
// Executors are single-use: Load, then Exec steps, then Result.
type Executor interface {
	Name() string
	StackType() stacks.Type
	Load(main, second Dataset) error
	Exec(step Step) error
	Result() (Dataset, error)
}

// GenerateData materializes a DataSpec into main and secondary datasets.
func GenerateData(spec DataSpec) (Dataset, Dataset, error) {
	gen := func(size int, g *stats.RNG) (Dataset, error) {
		out := make(Dataset, size)
		switch spec.Source {
		case "words":
			dict := textgen.DefaultDictionary()
			for i := 0; i < size; i++ {
				out[i] = Record{
					Key:   fmt.Sprintf("id%06d", i),
					Value: dict[g.IntN(len(dict))] + " " + dict[g.IntN(len(dict))] + " " + dict[g.IntN(len(dict))],
				}
			}
		case "pairs":
			for i := 0; i < size; i++ {
				out[i] = Record{Key: "k" + strconv.Itoa(i), Value: "v" + g.RandomWord(4, 8)}
			}
		default:
			return nil, fmt.Errorf("testgen: unknown data source %q", spec.Source)
		}
		return out, nil
	}
	g := stats.NewRNG(spec.Seed)
	main, err := gen(spec.Size, g.Split("main", 0))
	if err != nil {
		return nil, nil, err
	}
	var second Dataset
	if spec.SecondSize > 0 {
		second, err = gen(spec.SecondSize, g.Split("second", 0))
		if err != nil {
			return nil, nil, err
		}
	}
	return main, second, nil
}

// RunOn validates the prescription and executes it on the executor,
// recording one latency observation per executed operation plus iteration
// counters. It returns the final dataset. ctx is checked on entry and
// before every step, so a cancelled or timed-out run stops within one
// operation.
func RunOn(ctx context.Context, exec Executor, p Prescription, c *metrics.Collector) (Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	main, second, err := GenerateData(p.Data)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := exec.Load(main, second); err != nil {
		return nil, err
	}
	c.ObserveLatency("load", time.Since(t0))

	// Resolve every step's latency ref and the run counters once, before
	// the (possibly iterated) step loop: the loop then records through
	// direct handles instead of per-call label lookups.
	stepRefs := make([]metrics.OpRef, len(p.Steps))
	for i, step := range p.Steps {
		stepRefs[i] = c.Op(step.Op)
	}
	opsRef := c.CounterRef("operations")
	iterRef := c.CounterRef("iterations")

	runSteps := func() error {
		for i, step := range p.Steps {
			if err := ctx.Err(); err != nil {
				return err
			}
			t := time.Now()
			if err := exec.Exec(step); err != nil {
				return fmt.Errorf("testgen: step %q on %s: %w", step.Op, exec.Name(), err)
			}
			stepRefs[i].ObserveSince(t)
			opsRef.Add(1)
		}
		return nil
	}

	switch p.Kind {
	case IterativePattern:
		maxIter := p.MaxIter
		if maxIter <= 0 {
			maxIter = 100
		}
		prevSize := -1
		for iter := 0; iter < maxIter; iter++ {
			if err := runSteps(); err != nil {
				return nil, err
			}
			iterRef.Add(1)
			cur, err := exec.Result()
			if err != nil {
				return nil, err
			}
			stop := false
			switch p.Stop {
			case StopWhenStable:
				stop = len(cur) == prevSize
			case StopBelowSize:
				stop = len(cur) < p.StopArg
			}
			prevSize = len(cur)
			if stop {
				break
			}
		}
	default:
		if err := runSteps(); err != nil {
			return nil, err
		}
	}
	return exec.Result()
}

// ---- Reference executor (pure functional view) ----

// ReferenceExecutor applies the vocabulary's reference semantics directly;
// it is the functional-view oracle other executors are checked against.
type ReferenceExecutor struct {
	cur, second Dataset
}

// Name implements Executor.
func (e *ReferenceExecutor) Name() string { return "reference" }

// StackType implements Executor.
func (e *ReferenceExecutor) StackType() stacks.Type { return "abstract" }

// Load implements Executor.
func (e *ReferenceExecutor) Load(main, second Dataset) error {
	e.cur = append(Dataset(nil), main...)
	e.second = second
	return nil
}

// apply computes one step with the vocabulary's reference semantics: the
// reference executor's whole job, and the client-side glue of the stacks
// that lack a native equivalent.
func apply(step Step, cur, second Dataset) (Dataset, error) {
	op, err := Op(step.Op)
	if err != nil {
		return nil, err
	}
	if !step.UseSecond {
		second = nil
	}
	return op.Apply(cur, second, step.Arg)
}

// Exec implements Executor.
func (e *ReferenceExecutor) Exec(step Step) (err error) {
	e.cur, err = apply(step, e.cur, e.second)
	return err
}

// Result implements Executor.
func (e *ReferenceExecutor) Result() (Dataset, error) { return e.cur, nil }

// ---- DBMS executor ----

// DBMSExecutor stages data in the relational engine; keyed point ops and
// order/limit/count/join run as SQL, element transforms run client-side
// with reloads.
type DBMSExecutor struct {
	db     *dbms.DB
	second Dataset
}

// NewDBMSExecutor returns a fresh executor.
func NewDBMSExecutor() *DBMSExecutor { return &DBMSExecutor{db: dbms.Open()} }

// Name implements Executor.
func (e *DBMSExecutor) Name() string { return "dbms" }

// StackType implements Executor.
func (e *DBMSExecutor) StackType() stacks.Type { return stacks.TypeDBMS }

var kvSchema = data.Schema{Name: "t", Cols: []data.Column{
	{Name: "k", Kind: data.KindString},
	{Name: "v", Kind: data.KindString},
}}

func kvTable(name string, d Dataset) *data.Table {
	schema := kvSchema
	schema.Name = name
	t := data.NewTable(schema)
	for _, rec := range d {
		t.Rows = append(t.Rows, data.Row{data.String_(rec.Key), data.String_(rec.Value)})
	}
	return t
}

// Load implements Executor.
func (e *DBMSExecutor) Load(main, second Dataset) error {
	if err := e.db.Load(kvTable("t", main)); err != nil {
		return err
	}
	if err := e.db.CreateIndex("t", "k"); err != nil {
		return err
	}
	if second != nil {
		if err := e.db.Load(kvTable("t2", second)); err != nil {
			return err
		}
	}
	e.second = second
	return nil
}

// records reads a (k, v) query result back as a dataset.
func records(out *data.Table, err error) (Dataset, error) {
	if err != nil {
		return nil, err
	}
	ds := make(Dataset, out.NumRows())
	for i, row := range out.Rows {
		ds[i] = Record{Key: row[0].Str(), Value: row[1].Str()}
	}
	return ds, nil
}

func (e *DBMSExecutor) snapshot() (Dataset, error) {
	return records(e.db.Query("SELECT k, v FROM t"))
}

// replace reloads t with a (k, v) query result.
func (e *DBMSExecutor) replace(out *data.Table, err error) error {
	ds, err := records(out, err)
	if err != nil {
		return err
	}
	return e.reload(ds)
}

func (e *DBMSExecutor) reload(d Dataset) error {
	if err := e.db.DropTable("t"); err != nil {
		return err
	}
	if err := e.db.Load(kvTable("t", d)); err != nil {
		return err
	}
	return e.db.CreateIndex("t", "k")
}

// Exec implements Executor.
func (e *DBMSExecutor) Exec(step Step) error {
	switch step.Op {
	case "get":
		// Structured plan rather than string SQL: the argument is data,
		// not query text.
		return e.replace(e.db.Execute(dbms.Query{
			From:   "t",
			Where:  []dbms.Pred{{Col: "k", Op: dbms.OpEq, Val: data.String_(step.Arg)}},
			Select: []string{"k", "v"},
		}))
	case "put":
		k, v, ok := strings.Cut(step.Arg, "=")
		if !ok {
			return fmt.Errorf("put needs key=value")
		}
		n, err := e.db.UpdateWhere("t",
			[]dbms.Pred{{Col: "k", Op: dbms.OpEq, Val: data.String_(k)}},
			map[string]data.Value{"v": data.String_(v)})
		if err != nil {
			return err
		}
		if n == 0 {
			return e.db.Insert("t", data.Row{data.String_(k), data.String_(v)})
		}
		return nil
	case "delete":
		_, err := e.db.DeleteWhere("t", []dbms.Pred{{Col: "k", Op: dbms.OpEq, Val: data.String_(step.Arg)}})
		return err
	case "count":
		out, err := e.db.Query("SELECT count(*) AS n FROM t")
		if err != nil {
			return err
		}
		return e.reload(Dataset{{Key: "count", Value: strconv.FormatInt(out.Rows[0][0].Int(), 10)}})
	case "sort":
		return e.replace(e.db.Query("SELECT k, v FROM t ORDER BY k, v"))
	case "top":
		n, err := strconv.Atoi(step.Arg)
		if err != nil {
			return fmt.Errorf("top needs a count")
		}
		return e.replace(e.db.Query("SELECT k, v FROM t ORDER BY k, v LIMIT " + strconv.Itoa(n)))
	case "join":
		q := dbms.Query{
			From:   "t",
			Join:   &dbms.JoinSpec{Table: "t2", LeftCol: "k", RightCol: "k"},
			Select: []string{"k", "v", "t2.v"},
		}
		out, err := e.db.Execute(q)
		if err != nil {
			return err
		}
		ds := make(Dataset, out.NumRows())
		for i, row := range out.Rows {
			ds[i] = Record{Key: row[0].Str(), Value: row[1].Str() + "|" + row[2].Str()}
		}
		return e.reload(ds)
	default:
		// Client-side glue for element transforms the SQL subset lacks.
		cur, err := e.snapshot()
		if err != nil {
			return err
		}
		next, err := apply(step, cur, e.second)
		if err != nil {
			return err
		}
		return e.reload(next)
	}
}

// Result implements Executor.
func (e *DBMSExecutor) Result() (Dataset, error) { return e.snapshot() }

// ---- NoSQL executor ----

// NoSQLExecutor stages data in the cloud-serving store: point operations
// and ordered scans are native; set transforms scan, transform client-side
// and rewrite.
type NoSQLExecutor struct {
	store  *nosql.Store
	second Dataset
	// count tracks logical size after a count op collapses the state.
	collapsed Dataset
}

// NewNoSQLExecutor returns a fresh executor with the given partitioning.
func NewNoSQLExecutor(partitions int, seed uint64) *NoSQLExecutor {
	return &NoSQLExecutor{store: nosql.Open(partitions, seed)}
}

// Name implements Executor.
func (e *NoSQLExecutor) Name() string { return "nosql" }

// StackType implements Executor.
func (e *NoSQLExecutor) StackType() stacks.Type { return stacks.TypeNoSQL }

// Load implements Executor.
func (e *NoSQLExecutor) Load(main, second Dataset) error {
	for _, rec := range main {
		e.store.Insert(rec.Key, nosql.Record{"v": rec.Value})
	}
	e.second = second
	return nil
}

func (e *NoSQLExecutor) snapshot() Dataset {
	if e.collapsed != nil {
		return e.collapsed
	}
	kvs := e.store.Scan("", e.store.Size())
	ds := make(Dataset, len(kvs))
	for i, kv := range kvs {
		ds[i] = Record{Key: kv.Key, Value: kv.Rec.Get("v")}
	}
	return ds
}

func (e *NoSQLExecutor) rewrite(d Dataset) {
	// Duplicate keys cannot live in a KV store; a collapsed client-side
	// view holds such results instead.
	keys := map[string]bool{}
	unique := true
	for _, rec := range d {
		if keys[rec.Key] {
			unique = false
			break
		}
		keys[rec.Key] = true
	}
	if !unique {
		e.collapsed = d
		return
	}
	e.collapsed = nil
	old := e.store.Scan("", e.store.Size())
	for _, kv := range old {
		_ = e.store.Delete(kv.Key)
	}
	for _, rec := range d {
		e.store.Insert(rec.Key, nosql.Record{"v": rec.Value})
	}
}

// Exec implements Executor.
func (e *NoSQLExecutor) Exec(step Step) error {
	if e.collapsed == nil {
		switch step.Op {
		case "get":
			rec, err := e.store.Read(step.Arg, nil)
			if err == nosql.ErrNotFound {
				e.rewrite(Dataset{})
				return nil
			}
			if err != nil {
				return err
			}
			e.rewrite(Dataset{{Key: step.Arg, Value: rec.Get("v")}})
			return nil
		case "put":
			k, v, ok := strings.Cut(step.Arg, "=")
			if !ok {
				return fmt.Errorf("put needs key=value")
			}
			e.store.Insert(k, nosql.Record{"v": v})
			return nil
		case "delete":
			if err := e.store.Delete(step.Arg); err != nil && err != nosql.ErrNotFound {
				return err
			}
			return nil
		case "count":
			e.rewrite(Dataset{{Key: "count", Value: strconv.Itoa(e.store.Size())}})
			return nil
		case "sort":
			// Scans are already key-ordered; values are unique per key, so
			// scan order equals normalized order.
			e.rewrite(e.snapshot())
			return nil
		}
	}
	// Client-side glue.
	next, err := apply(step, e.snapshot(), e.second)
	if err != nil {
		return err
	}
	e.rewrite(next)
	return nil
}

// Result implements Executor.
func (e *NoSQLExecutor) Result() (Dataset, error) { return e.snapshot(), nil }

// ---- MapReduce executor ----

// MapReduceExecutor holds the working set as KV records and applies each
// operation as a MapReduce job.
type MapReduceExecutor struct {
	eng    *mapreduce.Engine
	cur    []mapreduce.KV
	second Dataset
}

// NewMapReduceExecutor returns an executor over an engine with the given
// parallelism.
func NewMapReduceExecutor(workers int) *MapReduceExecutor {
	return &MapReduceExecutor{eng: mapreduce.New(workers)}
}

// Name implements Executor.
func (e *MapReduceExecutor) Name() string { return "mapreduce" }

// StackType implements Executor.
func (e *MapReduceExecutor) StackType() stacks.Type { return stacks.TypeMapReduce }

// Load implements Executor.
func (e *MapReduceExecutor) Load(main, second Dataset) error {
	e.cur = make([]mapreduce.KV, len(main))
	for i, rec := range main {
		e.cur[i] = mapreduce.KV{Key: rec.Key, Value: rec.Value}
	}
	e.second = second
	return nil
}

// Exec implements Executor.
func (e *MapReduceExecutor) Exec(step Step) error {
	var job mapreduce.Job
	input := e.cur
	switch step.Op {
	case "select":
		arg := step.Arg
		job = mapreduce.Job{Name: "select", Map: func(k, v string, emit func(k, v string)) {
			if strings.Contains(v, arg) {
				emit(k, v)
			}
		}}
	case "project":
		job = mapreduce.Job{Name: "project", Map: func(k, _ string, emit func(k, v string)) {
			emit(k, "")
		}}
	case "enrich":
		arg := step.Arg
		job = mapreduce.Job{Name: "enrich", Map: func(k, v string, emit func(k, v string)) {
			emit(k, v+arg)
		}}
	case "get":
		arg := step.Arg
		job = mapreduce.Job{Name: "get", Map: func(k, v string, emit func(k, v string)) {
			if k == arg {
				emit(k, v)
			}
		}}
	case "delete":
		arg := step.Arg
		job = mapreduce.Job{Name: "delete", Map: func(k, v string, emit func(k, v string)) {
			if k != arg {
				emit(k, v)
			}
		}}
	case "put":
		k, v, ok := strings.Cut(step.Arg, "=")
		if !ok {
			return fmt.Errorf("put needs key=value")
		}
		found := false
		next := make([]mapreduce.KV, len(e.cur))
		for i, kv := range e.cur {
			if kv.Key == k {
				kv.Value = v
				found = true
			}
			next[i] = kv
		}
		if !found {
			next = append(next, mapreduce.KV{Key: k, Value: v})
		}
		e.cur = next
		return nil
	case "count":
		job = mapreduce.Job{
			Name: "count",
			Map:  func(k, v string, emit func(k, v string)) { emit("count", "1") },
			Reduce: func(k string, vs []string, emit func(k, v string)) {
				emit(k, strconv.Itoa(len(vs)))
			},
			NumReducers: 1,
		}
	case "distinct":
		job = mapreduce.Job{
			Name: "distinct",
			Map:  func(k, v string, emit func(k, v string)) { emit(k+"\x1f"+v, "") },
			Reduce: func(kv string, _ []string, emit func(k, v string)) {
				k, v, _ := strings.Cut(kv, "\x1f")
				emit(k, v)
			},
		}
	case "sort":
		job = mapreduce.Job{
			Name: "sort",
			Map:  func(k, v string, emit func(k, v string)) { emit(k, v) },
			Reduce: func(k string, vs []string, emit func(k, v string)) {
				sorted := append([]string(nil), vs...)
				sort.Strings(sorted)
				for _, v := range sorted {
					emit(k, v)
				}
			},
			NumReducers: 1,
		}
	case "top":
		n, err := strconv.Atoi(step.Arg)
		if err != nil {
			return fmt.Errorf("top needs a count")
		}
		if err := e.Exec(Step{Op: "sort"}); err != nil {
			return err
		}
		if n < len(e.cur) {
			e.cur = e.cur[:n]
		}
		return nil
	case "union":
		next := append([]mapreduce.KV(nil), e.cur...)
		for _, rec := range e.second {
			next = append(next, mapreduce.KV{Key: rec.Key, Value: rec.Value})
		}
		e.cur = next
		return nil
	case "join":
		input = append([]mapreduce.KV(nil), e.cur...)
		tagged := make([]mapreduce.KV, 0, len(input)+len(e.second))
		for _, kv := range input {
			tagged = append(tagged, mapreduce.KV{Key: kv.Key, Value: "L|" + kv.Value})
		}
		for _, rec := range e.second {
			tagged = append(tagged, mapreduce.KV{Key: rec.Key, Value: "R|" + rec.Value})
		}
		input = tagged
		job = mapreduce.Job{
			Name: "join",
			Map:  func(k, v string, emit func(k, v string)) { emit(k, v) },
			Reduce: func(k string, vs []string, emit func(k, v string)) {
				var lefts, rights []string
				for _, v := range vs {
					switch {
					case strings.HasPrefix(v, "L|"):
						lefts = append(lefts, v[2:])
					case strings.HasPrefix(v, "R|"):
						rights = append(rights, v[2:])
					}
				}
				for _, l := range lefts {
					for _, r := range rights {
						emit(k, l+"|"+r)
					}
				}
			},
		}
	default:
		return fmt.Errorf("mapreduce executor: unsupported operation %q", step.Op)
	}
	out, _, err := e.eng.Run(job, input)
	if err != nil {
		return err
	}
	e.cur = out
	return nil
}

// Result implements Executor.
func (e *MapReduceExecutor) Result() (Dataset, error) {
	ds := make(Dataset, len(e.cur))
	for i, kv := range e.cur {
		ds[i] = Record{Key: kv.Key, Value: kv.Value}
	}
	return ds, nil
}
