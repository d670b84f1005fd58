// The socialnetwork example covers the social-network application domain:
// generate a preferential-attachment friendship graph, find communities'
// connected components on the BSP engine, cluster user embeddings with the
// registered k-means workload via the public API, and stream the activity
// feed through windowed counts.
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/datagen"
	"github.com/bdbench/bdbench/datagen/graphgen"
	"github.com/bdbench/bdbench/datagen/streamgen"
	"github.com/bdbench/bdbench/stacks/graphengine"
	"github.com/bdbench/bdbench/stacks/streaming"
)

func main() {
	// 1. The social graph: 2^12 users, preferential attachment.
	g := graphgen.BarabasiAlbert{M: 3}.Generate(datagen.NewRNG(11), 12)
	fmt.Printf("social graph: %d users, %d friendships\n", g.N, g.NumEdges())
	hubs := g.TopDegreeVertices(3)
	fmt.Printf("most-followed users: %v\n", hubs)

	// 2. Communities: connected components on the BSP engine.
	und := graphengine.Undirected(g)
	res, err := graphengine.New(8).Run(und, graphengine.ConnectedComponents{}, 100)
	if err != nil {
		log.Fatal(err)
	}
	labels := map[float64]int{}
	for _, v := range res.Values {
		labels[v]++
	}
	fmt.Printf("communities: %d (BA graphs are connected, so expect 1)\n", len(labels))

	// 3. User clustering: the registered k-means workload (iterated
	// MapReduce) selected by name through the public scenario API.
	out, err := bdbench.Run(context.Background(), bdbench.Scenario{
		Name:    "user clustering",
		Entries: []bdbench.Entry{{Workload: "kmeans"}},
		Seed:    12,
		Scale:   2,
		Workers: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	km := out.Results[0].Result
	fmt.Printf("k-means: clustered %d user embeddings in %d iterations\n",
		km.Counters["records"], km.Counters["iterations"])

	// 4. The activity stream: zipf-skewed events through a tumbling window.
	gen := streamgen.Generator{
		EventsPerSec: 20000,
		KeySpace:     int64(g.N),
		KeyChooser:   datagen.Zipf{Count: g.N, S: 1.2},
	}
	events := gen.Generate(datagen.NewRNG(13), 40000)
	eng := streaming.New()
	sOut := eng.Run(events, streaming.TumblingWindow{Size: 500 * time.Millisecond})
	fmt.Printf("activity stream: %d events -> %d windowed per-user counts at %.0f ev/s\n",
		len(events), len(sOut.Out), sOut.Rate)

	// The hottest user in the stream should be one of the zipf head keys.
	var maxCount float64
	var hottest string
	for _, m := range sOut.Out {
		if m.Value > maxCount {
			maxCount, hottest = m.Value, m.Key
		}
	}
	fmt.Printf("hottest user in any window: %s (%d events)\n", hottest, int(maxCount))
}
