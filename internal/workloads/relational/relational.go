// Package relational implements the relational-analytics workloads of the
// paper's survey: data loading, selection, aggregation and join — the task
// set of the Pavlo et al. performance benchmark the paper cites, which
// compared parallel DBMSs against MapReduce — plus the "count URL links"
// task. Each task runs on the DBMS substrate and, where the original
// benchmark compared the two, has a MapReduce twin so bdbench can reproduce
// the comparison's shape.
package relational

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/dbms"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// ordersRows returns the reference orders table at Scale*2000 rows,
// generated through the chunked pipeline (rows identical at any
// DatagenWorkers setting) with the preparation time accounted to c.
func ordersRows(p workloads.Params, c *metrics.Collector) *data.Table {
	t0 := c.Now()
	t := tablegen.ReferenceTableParallel(p.Seed, int64(p.Scale)*2000, p.DatagenWorkers)
	c.RecordDatagen(c.Now().Sub(t0), int64(t.NumRows()))
	return t
}

// customersTable derives a small customers dimension table for joins.
func customersTable(p workloads.Params, c *metrics.Collector) *data.Table {
	spec := tablegen.TableSpec{
		Name: "customers",
		Seed: p.Seed + 1,
		Columns: []tablegen.ColumnSpec{
			{Name: "cid", Gen: tablegen.SeqColumn{}},
			{Name: "segment", Gen: tablegen.CategoryColumn{Categories: []string{"retail", "wholesale", "b2b"}}},
			{Name: "credit", Gen: tablegen.FloatColumn{Dist: stats.Uniform{Min: 0, Max: 1}}},
		},
	}
	t0 := c.Now()
	t := spec.GenerateParallel(10000, p.DatagenWorkers)
	c.RecordDatagen(c.Now().Sub(t0), int64(t.NumRows()))
	return t
}

// groundTruth counts from the rows themselves what the Pavlo tasks must find:
// the express orders in region eu, the price summed per region, and the
// orders whose customer's segment is retail.
func groundTruth(orders, customers *data.Table) (selected int, revenue map[string]float64, retail int) {
	oc, cc := orders.Schema.ColIndex, customers.Schema.ColIndex
	ri, ei, pi, ci := oc("region"), oc("express"), oc("price"), oc("customer_id")
	isRetail := make(map[int64]bool, customers.NumRows())
	for _, row := range customers.Rows {
		isRetail[row[cc("cid")].Int()] = row[cc("segment")].Str() == "retail"
	}
	revenue = map[string]float64{}
	for _, row := range orders.Rows {
		if row[ri].Str() == "eu" && row[ei].Bool() {
			selected++
		}
		revenue[row[ri].Str()] += row[pi].Float()
		if isRetail[row[ci].Int()] {
			retail++
		}
	}
	return selected, revenue, retail
}

// LoadSelectAggregateJoin runs the Pavlo task sequence on the DBMS and
// verifies each stage's result cardinality and values.
var LoadSelectAggregateJoin = workloads.New("pavlo-dbms", workloads.Realtime, "relational queries",
	loadSelectAggregateJoin, stacks.TypeDBMS)

func loadSelectAggregateJoin(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	orders := ordersRows(p, c)
	customers := customersTable(p, c)
	wantSel, _, wantJoin := groundTruth(orders, customers)
	db := dbms.Open().Instrument(c)

	t0 := c.Now()
	if err := db.Load(orders); err != nil {
		return err
	}
	if err := db.Load(customers); err != nil {
		return err
	}
	if err := db.CreateIndex("orders", "customer_id"); err != nil {
		return err
	}
	c.Op("load").Observe(c.Now().Sub(t0))

	// Selection: express orders in one region.
	t1 := c.Now()
	sel, err := db.Query("SELECT order_id, price FROM orders WHERE region = 'eu' AND express = true")
	if err != nil {
		return err
	}
	c.Op("select").Observe(c.Now().Sub(t1))
	if sel.NumRows() != wantSel {
		return fmt.Errorf("pavlo-dbms: selection %d rows, want %d", sel.NumRows(), wantSel)
	}

	// Aggregation: revenue per region.
	if err := ctx.Err(); err != nil {
		return err
	}
	t2 := c.Now()
	agg, err := db.Query("SELECT region, sum(price) AS revenue, count(*) AS n FROM orders GROUP BY region ORDER BY revenue DESC")
	if err != nil {
		return err
	}
	c.Op("aggregate").Observe(c.Now().Sub(t2))
	if agg.NumRows() != 5 {
		return fmt.Errorf("pavlo-dbms: aggregation %d groups, want 5 regions", agg.NumRows())
	}
	var totalN int64
	for _, row := range agg.Rows {
		totalN += row[2].Int()
	}
	if totalN != int64(orders.NumRows()) {
		return fmt.Errorf("pavlo-dbms: aggregation counts %d, want %d", totalN, orders.NumRows())
	}

	// Join: orders x customers with a filter on the dimension table.
	t3 := c.Now()
	join, err := db.Query("SELECT order_id, segment FROM orders JOIN customers ON customer_id = cid WHERE segment = 'retail'")
	if err != nil {
		return err
	}
	c.Op("join").Observe(c.Now().Sub(t3))
	if join.NumRows() != wantJoin {
		return fmt.Errorf("pavlo-dbms: join %d rows, want %d retail orders", join.NumRows(), wantJoin)
	}
	for _, row := range join.Rows {
		if row[1].Str() != "retail" {
			return fmt.Errorf("pavlo-dbms: join leak: %v", row)
		}
	}
	c.CounterRef("records").Add(int64(orders.NumRows()))
	return nil
}

// MapReduceEquivalents runs the same selection/aggregation/join tasks as
// MapReduce jobs over the CSV-ish encoding of the same table, reproducing
// the other side of the Pavlo comparison.
var MapReduceEquivalents = workloads.New("pavlo-mapreduce", workloads.Offline, "relational queries",
	mapReduceEquivalents, stacks.TypeMapReduce)

func mapReduceEquivalents(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	orders := ordersRows(p, c)
	customers := customersTable(p, c)
	wantSel, revenue, wantJoin := groundTruth(orders, customers)
	eng := mapreduce.New(p.Workers).Instrument(c)
	encoded := ordersInput(orders)

	// Selection.
	t1 := c.Now()
	sel, _, err := eng.Run(mapreduce.Job{
		Name: "mr-select",
		Map: func(k, v string, emit func(k, v string)) {
			if id, price, region, express := orderFields(v); region == "eu" && express == "true" {
				emit(id, price)
			}
		},
	}, encoded)
	if err != nil {
		return err
	}
	c.Op("select").Observe(c.Now().Sub(t1))
	if len(sel) != wantSel {
		return fmt.Errorf("pavlo-mapreduce: selection %d, want %d", len(sel), wantSel)
	}

	// Aggregation: revenue per region.
	t2 := c.Now()
	agg, _, err := eng.Run(mapreduce.Job{
		Name: "mr-aggregate",
		Map: func(k, v string, emit func(k, v string)) {
			_, price, region, _ := orderFields(v)
			emit(region, price)
		},
		Reduce: func(region string, prices []string, emit func(k, v string)) {
			sum := 0.0
			for _, s := range prices {
				f, _ := strconv.ParseFloat(s, 64)
				sum += f
			}
			emit(region, strconv.FormatFloat(sum, 'f', 2, 64))
		},
	}, encoded)
	if err != nil {
		return err
	}
	c.Op("aggregate").Observe(c.Now().Sub(t2))
	if len(agg) != 5 {
		return fmt.Errorf("pavlo-mapreduce: aggregation %d groups, want 5", len(agg))
	}
	for _, kv := range agg {
		// The reducer sums in shuffle order and prints cents.
		if got, _ := strconv.ParseFloat(kv.Value, 64); math.Abs(got-revenue[kv.Key]) >= 0.01 {
			return fmt.Errorf("pavlo-mapreduce: %s revenue %s, want %.2f", kv.Key, kv.Value, revenue[kv.Key])
		}
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	// Repartition join: tag records by source, join in the reducer.
	joinIn := joinInput(orders, customers)
	t3 := c.Now()
	joined, _, err := eng.Run(mapreduce.Job{
		Name: "mr-join",
		Map:  func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce: func(cid string, values []string, emit func(k, v string)) {
			var segment string
			var orderIDs []string
			for _, v := range values {
				switch {
				case strings.HasPrefix(v, "C|"):
					segment = v[2:]
				case strings.HasPrefix(v, "O|"):
					orderIDs = append(orderIDs, v[2:])
				}
			}
			if segment != "retail" {
				return
			}
			for _, oid := range orderIDs {
				emit(oid, segment)
			}
		},
	}, joinIn)
	if err != nil {
		return err
	}
	c.Op("join").Observe(c.Now().Sub(t3))
	if len(joined) != wantJoin {
		return fmt.Errorf("pavlo-mapreduce: join %d rows, want %d retail orders", len(joined), wantJoin)
	}
	c.CounterRef("records").Add(int64(orders.NumRows()))
	return nil
}

// ordersInput encodes orders as MapReduce input, one record per row keyed by
// its index: "order_id|customer_id|price|region|express".
func ordersInput(orders *data.Table) []mapreduce.KV {
	col := orders.Schema.ColIndex
	cols := []int{col("order_id"), col("customer_id"), col("price"), col("region"), col("express")}
	return encode(orders.NumRows(), func(rec []byte, i int) ([]byte, int) {
		rec = strconv.AppendInt(rec, int64(i), 10)
		k := len(rec)
		for j, col := range cols {
			if j > 0 {
				rec = append(rec, '|')
			}
			rec = orders.Rows[i][col].AppendText(rec)
		}
		return rec, k
	})
}

// orderFields cuts an ordersInput value into the fields the jobs read.
func orderFields(v string) (id, price, region, express string) {
	id, rest, _ := strings.Cut(v, "|")
	_, rest, _ = strings.Cut(rest, "|")
	price, rest, _ = strings.Cut(rest, "|")
	region, express, _ = strings.Cut(rest, "|")
	return id, price, region, express
}

// joinInput encodes the repartition join's input: every order keyed by its
// customer_id with value "O|order_id", then every customer keyed by its cid
// with value "C|segment".
func joinInput(orders, customers *data.Table) []mapreduce.KV {
	n := orders.NumRows()
	oc, oid := orders.Schema.ColIndex("customer_id"), orders.Schema.ColIndex("order_id")
	cid, seg := customers.Schema.ColIndex("cid"), customers.Schema.ColIndex("segment")
	return encode(n+customers.NumRows(), func(rec []byte, i int) ([]byte, int) {
		t, key, tag, val := orders, oc, "O|", oid
		if i >= n {
			t, key, tag, val, i = customers, cid, "C|", seg, i-n
		}
		rec = t.Rows[i][key].AppendText(rec)
		k := len(rec)
		return t.Rows[i][val].AppendText(append(rec, tag...)), k
	})
}

// urlInput encodes web log records as MapReduce input, one record per log
// line keyed by its index: "path status".
func urlInput(logs []weblog.Record) []mapreduce.KV {
	return encode(len(logs), func(rec []byte, i int) ([]byte, int) {
		rec = strconv.AppendInt(rec, int64(i), 10)
		k := len(rec)
		rec = append(append(rec, logs[i].Path...), ' ')
		return strconv.AppendInt(rec, int64(logs[i].Status), 10), k
	})
}

// encode builds n records in one mapreduce.Arena. record appends record i's
// key and then its value to rec, and returns rec and the key's length; it
// renders each record twice, once per pass.
func encode(n int, record func(rec []byte, i int) ([]byte, int)) []mapreduce.KV {
	in := make([]mapreduce.KV, n)
	var rec []byte
	mapreduce.Arena(in, nil, func(_ *stats.RNG, i int, b *strings.Builder) (int, int) {
		var k int
		rec, k = record(rec[:0], i)
		if b != nil {
			b.Write(rec)
		}
		return k, len(rec) - k
	})
	return in
}

// URLCount is the Pavlo benchmark's "count URL links" task over generated
// web logs: hits per product page, on the DBMS after a format conversion.
var URLCount = workloads.New("url-count", workloads.Realtime, "relational queries",
	urlCount, stacks.TypeDBMS, stacks.TypeMapReduce)

// hitsTable converts web log records to the DBMS table "hits" (path, status).
// Every row is a window of one slab of values.
func hitsTable(logs []weblog.Record) *data.Table {
	t := data.NewTable(data.Schema{Name: "hits", Cols: []data.Column{
		{Name: "path", Kind: data.KindString},
		{Name: "status", Kind: data.KindInt},
	}})
	t.Rows = make([]data.Row, len(logs))
	slab := make([]data.Value, 2*len(logs))
	for i, r := range logs {
		row := slab[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = data.String_(r.Path), data.Int(int64(r.Status))
		t.Rows[i] = row
	}
	return t
}

// topPathsQuery is url-count's DBMS side: the ten paths with the most
// successful hits.
const topPathsQuery = "SELECT path, count(*) AS hits FROM hits WHERE status = 200 GROUP BY path ORDER BY hits DESC LIMIT 10"

// urlCountJob is url-count's MapReduce side over urlInput: successful hits
// per path.
var urlCountJob = mapreduce.Job{
	Name: "mr-url-count",
	Map: func(k, v string, emit func(k, v string)) {
		if path, status, _ := strings.Cut(v, " "); status == "200" {
			emit(path, "1")
		}
	},
	Reduce: func(path string, ones []string, emit func(k, v string)) {
		emit(path, strconv.Itoa(len(ones)))
	},
}

func urlCount(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	orders := ordersRows(p, c)
	t0gen := c.Now()
	logs, err := weblog.FromTableParallel(p.Seed+2, orders, p.Scale*5000, p.DatagenWorkers)
	if err != nil {
		return err
	}
	c.RecordDatagen(c.Now().Sub(t0gen), int64(len(logs)))

	// DBMS side: convert logs to a table, GROUP BY path.
	db := dbms.Open().Instrument(c)
	if err := db.Load(hitsTable(logs)); err != nil {
		return err
	}
	t0 := c.Now()
	agg, err := db.Query(topPathsQuery)
	if err != nil {
		return err
	}
	c.Op("dbms").Observe(c.Now().Sub(t0))
	if agg.NumRows() == 0 {
		return fmt.Errorf("url-count: empty aggregation")
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	// MapReduce side: same count as a job; top-1 must agree.
	input := urlInput(logs)
	eng := mapreduce.New(p.Workers).Instrument(c)
	t1 := c.Now()
	counts, _, err := eng.Run(urlCountJob, input)
	if err != nil {
		return err
	}
	c.Op("mapreduce").Observe(c.Now().Sub(t1))

	mrCounts := map[string]int64{}
	for _, kv := range counts {
		n, _ := strconv.ParseInt(kv.Value, 10, 64)
		mrCounts[kv.Key] = n
	}
	topPath := agg.Rows[0][0].Str()
	topHits := agg.Rows[0][1].Int()
	if mrCounts[topPath] != topHits {
		return fmt.Errorf("url-count: DBMS says %s=%d, MapReduce says %d", topPath, topHits, mrCounts[topPath])
	}
	c.CounterRef("records").Add(int64(len(logs)))
	return nil
}
