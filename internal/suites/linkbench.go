package suites

import (
	"context"
	"fmt"
	"time"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/dbms"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// LinkBenchOps emulates LinkBench's workload: a social graph stored in a
// relational database (nodes and assocs tables), driven by a mix of point
// selects, inserts, updates, deletes, association range queries and count
// queries — "simple operations ... and association range queries and count
// queries" per the paper's Table 2.
type LinkBenchOps struct{}

// Name implements workloads.Workload.
func (LinkBenchOps) Name() string { return "linkbench-ops" }

// Category implements workloads.Workload.
func (LinkBenchOps) Category() workloads.Category { return workloads.Online }

// Domain implements workloads.Workload.
func (LinkBenchOps) Domain() string { return "social graph serving" }

// StackTypes implements workloads.Workload.
func (LinkBenchOps) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeDBMS} }

// Run implements workloads.Workload.
func (LinkBenchOps) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	g := stats.NewRNG(p.Seed)
	graph := graphgen.BarabasiAlbert{M: 4}.Generate(g, 8+p.Scale)

	db := dbms.Open().Instrument(c)
	nodes := data.NewTable(data.Schema{Name: "nodes", Cols: []data.Column{
		{Name: "id", Kind: data.KindInt},
		{Name: "kind", Kind: data.KindString},
		{Name: "version", Kind: data.KindInt},
	}})
	for i := int64(0); i < graph.N; i++ {
		nodes.Rows = append(nodes.Rows, data.Row{data.Int(i), data.String_("user"), data.Int(0)})
	}
	assocs := data.NewTable(data.Schema{Name: "assocs", Cols: []data.Column{
		{Name: "src", Kind: data.KindInt},
		{Name: "dst", Kind: data.KindInt},
		{Name: "kind", Kind: data.KindString},
	}})
	for _, e := range graph.Edges {
		assocs.Rows = append(assocs.Rows, data.Row{data.Int(e.Src), data.Int(e.Dst), data.String_("friend")})
	}
	t0 := time.Now()
	if err := db.Load(nodes); err != nil {
		return err
	}
	if err := db.Load(assocs); err != nil {
		return err
	}
	if err := db.CreateIndex("nodes", "id"); err != nil {
		return err
	}
	if err := db.CreateIndex("assocs", "src"); err != nil {
		return err
	}
	c.ObserveLatency("load", time.Since(t0))

	ops := int64(p.Scale) * 2000
	chooser := stats.ScrambledZipf{Count: graph.N, S: 1.2}
	nextNode := graph.N
	// The request loop records into a private shard so its per-operation
	// measurements never touch the collector's shared state, through
	// OpRefs resolved once here so the loop never pays the per-call label
	// lookup.
	shard := c.Shard()
	selectRef := shard.Op("select")
	rangeRef := shard.Op("assoc_range")
	countRef := shard.Op("count")
	updateRef := shard.Op("update")
	insertRef := shard.Op("insert")
	deleteRef := shard.Op("delete")
	for i := int64(0); i < ops; i++ {
		if i%128 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		id := chooser.Next(g) % graph.N
		u := g.Float64()
		switch {
		case u < 0.5: // point select
			t := time.Now()
			out, err := db.Execute(dbms.Query{
				From:   "nodes",
				Where:  []dbms.Pred{{Col: "id", Op: dbms.OpEq, Val: data.Int(id)}},
				Select: []string{"id", "version"},
			})
			selectRef.ObserveSince(t)
			if err != nil {
				return err
			}
			if out.NumRows() == 0 {
				return fmt.Errorf("linkbench: node %d missing", id)
			}
		case u < 0.65: // association range query
			t := time.Now()
			out, err := db.Execute(dbms.Query{
				From:    "assocs",
				Where:   []dbms.Pred{{Col: "src", Op: dbms.OpEq, Val: data.Int(id)}},
				Select:  []string{"dst"},
				OrderBy: []dbms.Order{{Col: "dst"}},
				Limit:   50,
			})
			rangeRef.ObserveSince(t)
			if err != nil {
				return err
			}
			_ = out
		case u < 0.8: // count query
			t := time.Now()
			out, err := db.Execute(dbms.Query{
				From:  "assocs",
				Where: []dbms.Pred{{Col: "src", Op: dbms.OpEq, Val: data.Int(id)}},
				Aggs:  []dbms.Agg{{Fn: "count", Col: "*"}},
			})
			countRef.ObserveSince(t)
			if err != nil {
				return err
			}
			if out.NumRows() != 1 {
				return fmt.Errorf("linkbench: count query returned %d rows", out.NumRows())
			}
		case u < 0.9: // version update
			t := time.Now()
			n, err := db.UpdateWhere("nodes",
				[]dbms.Pred{{Col: "id", Op: dbms.OpEq, Val: data.Int(id)}},
				map[string]data.Value{"version": data.Int(i)})
			updateRef.ObserveSince(t)
			if err != nil {
				return err
			}
			if n != 1 {
				return fmt.Errorf("linkbench: update touched %d rows", n)
			}
		case u < 0.97: // insert node + edge
			t := time.Now()
			if err := db.Insert("nodes", data.Row{data.Int(nextNode), data.String_("user"), data.Int(0)}); err != nil {
				return err
			}
			if err := db.Insert("assocs", data.Row{data.Int(nextNode), data.Int(id), data.String_("friend")}); err != nil {
				return err
			}
			insertRef.ObserveSince(t)
			nextNode++
		default: // delete association
			t := time.Now()
			if _, err := db.DeleteWhere("assocs", []dbms.Pred{
				{Col: "src", Op: dbms.OpEq, Val: data.Int(id)},
				{Col: "dst", Op: dbms.OpEq, Val: data.Int((id + 1) % graph.N)},
			}); err != nil {
				return err
			}
			deleteRef.ObserveSince(t)
		}
	}
	c.Add("records", ops)
	return nil
}
