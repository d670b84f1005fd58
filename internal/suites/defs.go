package suites

import (
	"github.com/bdbench/bdbench/internal/workloads"
	"github.com/bdbench/bdbench/internal/workloads/commerce"
	"github.com/bdbench/bdbench/internal/workloads/micro"
	"github.com/bdbench/bdbench/internal/workloads/oltp"
	"github.com/bdbench/bdbench/internal/workloads/relational"
	"github.com/bdbench/bdbench/internal/workloads/search"
	"github.com/bdbench/bdbench/internal/workloads/social"
	"github.com/bdbench/bdbench/internal/workloads/streamwl"
)

// scaled returns a Size function growing linearly with the scale factor.
func scaled(unit int64) func(int) int64 {
	return func(sf int) int64 { return unit * int64(sf) }
}

// fixed returns a Size function that ignores the scale factor.
func fixed(size int64) func(int) int64 {
	return func(int) int64 { return size }
}

// All returns the built-in suites: the ten surveyed efforts in the paper's
// Table 1 row order, then bdbench itself (the §5 extension row). Their rows
// are also the built-in workload inventory — every workload bdbench ships
// appears in at least one — so there is no second list to keep in step;
// scenario.Default seeds its registry from here.
func All() []Suite {
	return []Suite{
		{
			Name: "HiBench", Ref: "[12]",
			Datasets: []DatasetSpec{
				{Name: "random-text", Kind: SourceText, Size: scaled(1_000_000)},
				// HiBench ships fixed seed data sets (e.g. the Nutch/Bayes
				// input corpora), which is why the paper rates it only
				// partially scalable.
				{Name: "nutch-seed-corpus", Kind: SourceText, Fixed: true, Size: fixed(250_000)},
			},
			Text: TextRandom,
			Rows: []WorkloadRow{
				{
					Category: workloads.Offline,
					Examples: []string{"Sort", "WordCount", "TeraSort", "PageRank", "K-means", "Bayes classification"},
					Runners: []workloads.Workload{
						micro.Sort{}, micro.WordCount{}, micro.TeraSort{},
						search.PageRank{}, social.KMeans{}, commerce.NaiveBayes{},
					},
				},
				{
					Category: workloads.Realtime,
					Examples: []string{"Nutch Indexing"},
					Runners:  []workloads.Workload{search.InvertedIndex{}},
				},
			},
			SoftwareStacks: []string{"Hadoop", "Hive"},
		},
		{
			Name: "GridMix", Ref: "[4]",
			Datasets: []DatasetSpec{
				{Name: "synthetic-text", Kind: SourceText, Size: scaled(1_000_000)},
			},
			Text: TextRandom,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"Sort", "sampling a large dataset"},
					Runners:  []workloads.Workload{micro.Sort{}, micro.Grep{}},
				},
			},
			SoftwareStacks: []string{"Hadoop"},
		},
		{
			Name: "PigMix", Ref: "[6]",
			Datasets: []DatasetSpec{
				{Name: "pig-text", Kind: SourceText, Size: scaled(1_000_000)},
			},
			Text: TextRandom,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"12 data queries"},
					Runners:  []workloads.Workload{relational.MapReduceEquivalents{}},
				},
			},
			SoftwareStacks: []string{"Hadoop"},
		},
		{
			Name: "YCSB", Ref: "[9]",
			Datasets: []DatasetSpec{
				{Name: "usertable", Kind: SourceTable, Size: scaled(100_000)},
			},
			Table: TableRandom,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"OLTP (read, write, scan, update)"},
					Runners: []workloads.Workload{
						oltp.WorkloadA, oltp.WorkloadB, oltp.WorkloadC,
						oltp.WorkloadD, oltp.WorkloadE, oltp.WorkloadF,
					},
				},
			},
			SoftwareStacks: []string{"NoSQL systems"},
		},
		{
			Name: "Performance benchmark (Pavlo)", Ref: "[15]",
			Datasets: []DatasetSpec{
				{Name: "grep-records", Kind: SourceText, Size: scaled(1_000_000)},
				{Name: "rankings-uservisits", Kind: SourceTable, Size: scaled(100_000)},
			},
			Text:  TextRandom,
			Table: TableRandom,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"Data loading", "select", "aggregate", "join", "count URL links"},
					Runners: []workloads.Workload{
						relational.LoadSelectAggregateJoin{},
						relational.MapReduceEquivalents{},
						relational.URLCount{},
					},
				},
			},
			SoftwareStacks: []string{"DBMS", "Hadoop"},
		},
		{
			Name: "TPC-DS", Ref: "[11]",
			Datasets: []DatasetSpec{
				{Name: "retail-tables", Kind: SourceTable, Size: scaled(500_000)},
			},
			Velocity: VelocityCaps{Rate: true},
			Table:    TableMoment,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"Data loading", "queries", "maintenance"},
					Runners:  []workloads.Workload{relational.LoadSelectAggregateJoin{}},
				},
			},
			SoftwareStacks: []string{"DBMS"},
		},
		{
			Name: "BigBench", Ref: "[11]",
			Datasets: []DatasetSpec{
				{Name: "pdgf-tables", Kind: SourceTable, Size: scaled(500_000)},
				{Name: "web-logs", Kind: SourceWebLog, Size: scaled(200_000)},
				{Name: "reviews", Kind: SourceText, Size: scaled(100_000)},
			},
			Velocity: VelocityCaps{Rate: true},
			Table:    TableMoment,
			// BigBench derives logs and reviews from the table data, so
			// their veracity rides on the tables (paper §4.1).
			DerivedSources: []SourceKind{SourceWebLog, SourceText},
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"Database operations (select, create and drop tables)"},
					Runners:  []workloads.Workload{relational.LoadSelectAggregateJoin{}},
				},
				{
					Category: workloads.Offline,
					Examples: []string{"K-means", "classification"},
					Runners:  []workloads.Workload{social.KMeans{}, commerce.NaiveBayes{}},
				},
			},
			SoftwareStacks: []string{"DBMS", "Hadoop"},
		},
		{
			Name: "LinkBench", Ref: "[17]",
			Datasets: []DatasetSpec{
				{Name: "social-graph", Kind: SourceGraph, Size: scaled(1_000_000)},
				// LinkBench replays a fixed Facebook snapshot profile.
				{Name: "fb-snapshot-profile", Kind: SourceGraph, Fixed: true, Size: fixed(500_000)},
			},
			Velocity: VelocityCaps{Rate: true},
			Graph:    GraphApprox,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"select", "insert", "update", "delete", "association range queries", "count queries"},
					Runners:  []workloads.Workload{LinkBenchOps{}},
				},
			},
			SoftwareStacks: []string{"DBMS (MySQL)"},
		},
		{
			Name: "CloudSuite", Ref: "[10]",
			Datasets: []DatasetSpec{
				{Name: "crawl-text", Kind: SourceText, Size: scaled(500_000)},
				{Name: "social-graph", Kind: SourceGraph, Size: scaled(500_000)},
				{Name: "media-library", Kind: SourceVideo, Fixed: true, Size: fixed(50_000_000)},
				{Name: "serving-tables", Kind: SourceTable, Size: scaled(100_000)},
			},
			Velocity: VelocityCaps{Rate: true},
			Text:     TextRandom,
			Table:    TableMoment,
			Graph:    GraphApprox,
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"YCSB's workloads"},
					Runners:  []workloads.Workload{oltp.WorkloadA, oltp.WorkloadB},
				},
				{
					Category: workloads.Offline,
					Examples: []string{"Text classification", "WordCount"},
					Runners:  []workloads.Workload{commerce.NaiveBayes{}, micro.WordCount{}},
				},
			},
			SoftwareStacks: []string{"NoSQL systems", "Hadoop", "GraphLab"},
		},
		{
			Name: "BigDataBench", Ref: "[19]",
			Datasets: []DatasetSpec{
				{Name: "wiki-text", Kind: SourceText, Size: scaled(1_000_000)},
				{Name: "resumes", Kind: SourceResume, Size: scaled(100_000)},
				{Name: "social-graph", Kind: SourceGraph, Size: scaled(1_000_000)},
				{Name: "e-commerce-tables", Kind: SourceTable, Size: scaled(500_000)},
			},
			Velocity:       VelocityCaps{Rate: true},
			Text:           TextLDA,
			Table:          TableProfiled,
			Graph:          GraphMatched,
			DerivedSources: []SourceKind{SourceResume},
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"Database operations (read, write, scan)"},
					Runners:  []workloads.Workload{oltp.WorkloadB, oltp.WorkloadC, oltp.WorkloadE},
				},
				{
					Category: workloads.Offline,
					Examples: []string{"Sort", "Grep", "WordCount", "index", "PageRank", "K-means", "connected components", "collaborative filtering", "Naive Bayes"},
					Runners: []workloads.Workload{
						micro.Sort{}, micro.Grep{}, micro.WordCount{},
						search.InvertedIndex{}, search.PageRank{},
						social.KMeans{}, social.ConnectedComponents{},
						commerce.CollaborativeFiltering{}, commerce.NaiveBayes{},
					},
				},
				{
					Category: workloads.Realtime,
					Examples: []string{"Relational query (select, aggregate, join)"},
					Runners:  []workloads.Workload{relational.LoadSelectAggregateJoin{}},
				},
			},
			SoftwareStacks: []string{"NoSQL systems", "DBMS", "real-time analytics", "offline analytics"},
		},
		{
			Name: "bdbench (this work)", Ref: "—",
			Datasets: []DatasetSpec{
				{Name: "text", Kind: SourceText, Size: scaled(1_000_000)},
				{Name: "tables", Kind: SourceTable, Size: scaled(500_000)},
				{Name: "graphs", Kind: SourceGraph, Size: scaled(1_000_000)},
				{Name: "streams", Kind: SourceStream, Size: scaled(1_000_000)},
				{Name: "web-logs", Kind: SourceWebLog, Size: scaled(200_000)},
				{Name: "resumes", Kind: SourceResume, Size: scaled(100_000)},
				{Name: "videos", Kind: SourceVideo, Size: scaled(10_000_000)},
			},
			// Fully controllable velocity per §5.1: generation rate AND
			// update frequency (streamgen's mix knob).
			Velocity:       VelocityCaps{Rate: true, UpdateFrequency: true},
			Text:           TextLDA,
			Table:          TableProfiled,
			Graph:          GraphMatched,
			DerivedSources: []SourceKind{SourceWebLog, SourceResume},
			Rows: []WorkloadRow{
				{
					Category: workloads.Online,
					Examples: []string{"YCSB A-F", "LinkBench operations"},
					Runners:  []workloads.Workload{oltp.WorkloadA, LinkBenchOps{}},
				},
				{
					Category: workloads.Offline,
					Examples: []string{"micro benchmarks", "search", "social", "e-commerce"},
					Runners: []workloads.Workload{
						micro.TeraSort{}, search.PageRank{},
						social.ConnectedComponents{}, commerce.CollaborativeFiltering{},
					},
				},
				{
					Category: workloads.Realtime,
					Examples: []string{"relational queries", "windowed streaming"},
					Runners: []workloads.Workload{
						relational.LoadSelectAggregateJoin{},
						streamwl.WindowedCount{}, streamwl.RollingAggregate{},
					},
				},
			},
			SoftwareStacks: []string{"mapreduce", "dbms", "nosql", "streaming", "graph"},
		},
	}
}
