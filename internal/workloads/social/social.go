// Package social implements the social-network domain workloads of the
// paper's survey: k-means clustering (as iterated MapReduce jobs, the way
// HiBench/BigDataBench run it on Hadoop) and connected components on the
// BSP graph engine.
package social

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/graphengine"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Point is a 2-D feature vector (user embedding).
type Point struct{ X, Y float64 }

func (p Point) encode() string {
	return strconv.FormatFloat(p.X, 'g', -1, 64) + "," + strconv.FormatFloat(p.Y, 'g', -1, 64)
}

func decodePoint(s string) (Point, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return Point{}, fmt.Errorf("social: bad point %q", s)
	}
	x, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return Point{}, err
	}
	y, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return Point{}, err
	}
	return Point{x, y}, nil
}

func dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// GenerateClusters produces n points around k well-separated centers plus
// the true centers, the standard synthetic clustering input.
func GenerateClusters(g *stats.RNG, n, k int) ([]Point, []Point) {
	centers := make([]Point, k)
	for i := range centers {
		centers[i] = Point{X: float64(i%4) * 20, Y: float64(i/4) * 20}
	}
	points := make([]Point, n)
	for i := range points {
		c := centers[g.IntN(k)]
		points[i] = Point{X: c.X + g.NormFloat64(), Y: c.Y + g.NormFloat64()}
	}
	return points, centers
}

// KMeans clusters points with Lloyd's algorithm, each iteration a
// MapReduce job: map assigns points to the nearest centroid, reduce
// averages each cluster.
type KMeans struct{}

// Name implements workloads.Workload.
func (KMeans) Name() string { return "kmeans" }

// Category implements workloads.Workload.
func (KMeans) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (KMeans) Domain() string { return "social network" }

// StackTypes implements workloads.Workload.
func (KMeans) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (KMeans) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	const (
		k     = 4 // clusters
		iters = 8 // Lloyd iterations
	)
	g := stats.NewRNG(p.Seed)
	t0gen := time.Now()
	points, trueCenters := GenerateClusters(g, p.Scale*1000, k)
	c.RecordDatagen(time.Since(t0gen), int64(len(points)))
	input := make([]mapreduce.KV, len(points))
	for i, pt := range points {
		input[i] = mapreduce.KV{Key: strconv.Itoa(i), Value: pt.encode()}
	}
	// Farthest-point initialization: the first centroid is uniform, each
	// next one is the point farthest from those already chosen. On the
	// planted clusters (separated by 20, unit spread) the farthest point is
	// always in a cluster that has no centroid yet, so every seed starts
	// with one centroid per cluster — distance-weighted sampling (k-means++)
	// put two in one cluster on about one seed in forty.
	centroids := make([]Point, 0, k)
	centroids = append(centroids, points[g.IntN(len(points))])
	for len(centroids) < k {
		far, farD := 0, -1.0
		for i, pt := range points {
			near := math.Inf(1)
			for _, cent := range centroids {
				near = math.Min(near, dist2(pt, cent))
			}
			if near > farD {
				far, farD = i, near
			}
		}
		centroids = append(centroids, points[far])
	}
	eng := mapreduce.New(p.Workers).Instrument(c)
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cs := append([]Point(nil), centroids...) // capture for the mapper
		job := mapreduce.Job{
			Name: "kmeans-iter",
			Map: func(_, value string, emit func(k, v string)) {
				pt, err := decodePoint(value)
				if err != nil {
					return
				}
				best, bestD := 0, math.Inf(1)
				for ci, cent := range cs {
					if d := dist2(pt, cent); d < bestD {
						best, bestD = ci, d
					}
				}
				emit(strconv.Itoa(best), value)
			},
			Reduce: func(key string, values []string, emit func(k, v string)) {
				var sx, sy float64
				for _, v := range values {
					pt, err := decodePoint(v)
					if err != nil {
						continue
					}
					sx += pt.X
					sy += pt.Y
				}
				n := float64(len(values))
				emit(key, Point{X: sx / n, Y: sy / n}.encode())
			},
		}
		out, _, err := eng.Run(job, input)
		if err != nil {
			return err
		}
		for _, kv := range out {
			ci, err := strconv.Atoi(kv.Key)
			if err != nil || ci < 0 || ci >= k {
				return fmt.Errorf("kmeans: bad centroid id %q", kv.Key)
			}
			pt, err := decodePoint(kv.Value)
			if err != nil {
				return err
			}
			centroids[ci] = pt
		}
	}
	c.ObserveLatency("cluster", time.Since(t0))
	c.Add("records", int64(len(points)))
	c.Add("iterations", int64(iters))

	// Verify: every true center has a learned centroid within 3 units
	// (clusters are separated by 20).
	for _, tc := range trueCenters {
		found := false
		for _, lc := range centroids {
			if math.Sqrt(dist2(tc, lc)) < 3 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("kmeans: no centroid recovered near true center %+v (got %+v)", tc, centroids)
		}
	}
	return nil
}

// ConnectedComponents labels a Barabási–Albert social graph on the BSP
// engine and verifies against union-find.
type ConnectedComponents struct{}

// Name implements workloads.Workload.
func (ConnectedComponents) Name() string { return "connected-components" }

// Category implements workloads.Workload.
func (ConnectedComponents) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (ConnectedComponents) Domain() string { return "social network" }

// StackTypes implements workloads.Workload.
func (ConnectedComponents) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeGraph} }

// Run implements workloads.Workload.
func (ConnectedComponents) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	scale := 8 + p.Scale
	if err := ctx.Err(); err != nil {
		return err
	}
	// Preferential attachment is inherently sequential (every edge depends
	// on all previous degrees), so the BA graph stays on the single-RNG
	// path; its cost is still accounted to the datagen family.
	t0gen := time.Now()
	g := graphgen.BarabasiAlbert{M: 2}.Generate(stats.NewRNG(p.Seed), scale)
	c.RecordDatagen(time.Since(t0gen), int64(g.NumEdges()))
	und := graphengine.Undirected(g)
	eng := graphengine.New(p.Workers).Instrument(c)
	t0 := time.Now()
	res, err := eng.Run(und, graphengine.ConnectedComponents{}, 200)
	if err != nil {
		return err
	}
	c.ObserveLatency("run", time.Since(t0))
	c.Add("records", und.N)
	c.Add("messages", res.MessagesSent)

	labels := map[float64]bool{}
	for _, v := range res.Values {
		labels[v] = true
	}
	wantCount, _ := und.ConnectedComponents()
	if len(labels) != wantCount {
		return fmt.Errorf("connected-components: engine found %d components, union-find %d", len(labels), wantCount)
	}
	c.Add("components", int64(len(labels)))
	return nil
}
