// Package corpora registers the built-in named corpus generators with the
// datagen registry: "text", "table", "graph", "stream" and "weblog", one
// chunk-parallel family per data source of the paper's §2 survey. Importing
// this package (the public bdbench API does) makes them addressable by name
// from bdbench.DataGen and the `bdbench datagen` command.
package corpora

import (
	"sync"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
)

// referenceOrders lazily builds the fixed orders table web-log sessions
// derive from. The seed is a constant: the weblog corpus's own seed governs
// its sessions, while the underlying table is part of the generator's
// identity (BigBench-style: "the veracity of web logs ... relies on the
// table data").
var referenceOrders = sync.OnceValue(func() *data.Table {
	return tablegen.ReferenceTable(99, 2000)
})

func init() {
	datagen.Register(textgen.CorpusGen{})
	datagen.Register(tablegen.TableCorpus{})
	datagen.Register(graphgen.GraphCorpus{})
	datagen.Register(streamgen.StreamCorpus{})
	datagen.Register(weblog.NewLogCorpus(referenceOrders))
}
