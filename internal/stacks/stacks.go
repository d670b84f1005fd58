// Package stacks defines the common notion of a "software stack" from the
// paper's system view (§2.2): the substrate a prescribed benchmark test
// executes on. bdbench ships five stack implementations — mapreduce, dbms,
// nosql, streaming and graphengine — each in its own subpackage; this
// package holds the shared taxonomy the test generator binds against.
package stacks

// Type classifies a stack, mirroring the "software stacks" column of the
// paper's Table 2.
type Type string

// The stack types bdbench implements.
const (
	TypeMapReduce Type = "mapreduce" // Hadoop-style batch dataflow
	TypeDBMS      Type = "dbms"      // relational engine
	TypeNoSQL     Type = "nosql"     // cloud-serving key-value store
	TypeStreaming Type = "streaming" // windowed stream dataflow
	TypeGraph     Type = "graph"     // Pregel-style BSP graph engine
)
