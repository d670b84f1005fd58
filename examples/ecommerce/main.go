// The ecommerce example walks the e-commerce application domain: generate
// the orders fact table, derive web logs from it (BigBench-style), answer
// business questions in SQL on the DBMS substrate, and produce
// recommendations with the registered collaborative-filtering workload via
// the public API.
//
//	go run ./examples/ecommerce
package main

import (
	"context"
	"fmt"
	"log"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/datagen"
	"github.com/bdbench/bdbench/datagen/tablegen"
	"github.com/bdbench/bdbench/datagen/weblog"
	"github.com/bdbench/bdbench/stacks/dbms"
)

func main() {
	// 1. Structured data: the orders table.
	orders := tablegen.ReferenceTable(7, 20000)

	// 2. Semi-structured data derived from it: the click log.
	logs, err := weblog.FromTable(datagen.NewRNG(8), orders, 5000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d orders and %d log lines\n", orders.NumRows(), len(logs))

	// 3. SQL analytics on the DBMS substrate.
	db := dbms.Open()
	if err := db.Load(orders); err != nil {
		log.Fatal(err)
	}
	if err := db.CreateIndex("orders", "customer_id"); err != nil {
		log.Fatal(err)
	}
	revenue, err := db.Query(
		"SELECT region, sum(price) AS revenue, count(*) AS n FROM orders GROUP BY region ORDER BY revenue DESC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrevenue by region:")
	for _, row := range revenue.Rows {
		fmt.Printf("  %-6s $%12.2f  (%d orders)\n", row[0].Str(), row[1].Float(), row[2].Int())
	}
	express, err := db.Query("SELECT count(*) FROM orders WHERE express = true AND region = 'eu'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("express EU orders: %d\n", express.Rows[0][0].Int())

	// 4. Recommendations: the registered collaborative-filtering workload
	// (item-based CF over a planted-taste rating matrix, verified
	// internally) selected by name through the public scenario API.
	out, err := bdbench.Run(context.Background(), bdbench.Scenario{
		Name:    "recommendations",
		Entries: []bdbench.Entry{{Workload: "collaborative-filtering"}},
		Seed:    9,
		Workers: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	cf := out.Results[0].Result
	fmt.Println("\ncollaborative filtering:")
	fmt.Printf("  processed %d ratings at %.0f ops/s (domain: %s)\n",
		cf.Counters["records"], cf.Throughput, out.Results[0].Domain)
	for _, op := range cf.Ops {
		fmt.Printf("  %-12s n=%-6d mean=%v\n", op.Op, op.Count, op.Mean)
	}
}
