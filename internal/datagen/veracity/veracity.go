// Package veracity implements the paper's §5.1 research direction "metrics
// to evaluate data veracity": quantitative comparisons of a synthetic data
// set against the raw data it models. Two metric families are provided, as
// the paper proposes: model-vs-raw (compare the constructed data model with
// the raw data) and synthetic-vs-raw (compare the generated data with the
// raw data), specialized per data type — text, table, graph and stream.
//
// Scores are divergences: 0 means indistinguishable, larger means less
// faithful. The package also provides Classify, which maps a measured
// divergence onto the paper's three-level Table 1 scale by comparing it
// against two calibration points: the divergence of an independent resample
// of the raw data (the noise floor) and the divergence of a veracity-unaware
// baseline generator.
package veracity

import (
	"fmt"
	"math"
	"time"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/stats"
)

// Metric is one named veracity measurement.
type Metric struct {
	Name  string
	Value float64
}

// Report is the result of comparing one synthetic data set against raw data.
type Report struct {
	DataType string
	Metrics  []Metric
}

// Score returns the report's primary divergence: the first metric.
func (r Report) Score() float64 {
	if len(r.Metrics) == 0 {
		return 0
	}
	return r.Metrics[0].Value
}

// Text compares two corpora. The primary metric is the KL divergence of the
// synthetic word distribution from the raw one (the paper's worked example);
// secondary metrics are JS divergence, cosine similarity and a bigram JS
// that captures local structure a unigram model misses.
func Text(raw, syn textgen.Corpus) (Report, error) {
	vocab := textgen.BuildVocabulary(raw)
	rawDist := textgen.WordDistribution(raw, vocab)
	synDist := textgen.WordDistribution(syn, vocab)
	kl, err := stats.KLDivergence(rawDist, synDist)
	if err != nil {
		return Report{}, err
	}
	js, err := stats.JSDivergence(rawDist, synDist)
	if err != nil {
		return Report{}, err
	}
	cos, err := stats.CosineSimilarity(rawDist, synDist)
	if err != nil {
		return Report{}, err
	}
	bigramJS, err := bigramDivergence(raw, syn)
	if err != nil {
		return Report{}, err
	}
	return Report{
		DataType: "text",
		Metrics: []Metric{
			{"kl_word", kl},
			{"js_word", js},
			{"cosine_word", cos},
			{"js_bigram", bigramJS},
		},
	}, nil
}

func bigramDivergence(raw, syn textgen.Corpus) (float64, error) {
	count := func(c textgen.Corpus) *stats.FreqTable {
		ft := stats.NewFreqTable()
		for _, d := range c {
			for i := 0; i+1 < len(d); i++ {
				ft.Observe(d[i] + " " + d[i+1])
			}
		}
		return ft
	}
	p, q := stats.AlignedProbabilities(count(raw), count(syn))
	return stats.JSDivergence(p, q)
}

// Table compares two tables column by column. Numeric columns use the
// 1-D earth mover's distance over aligned histograms (normalized by bin
// count); string columns use total variation over category frequencies.
// The primary metric is the mean column divergence.
func Table(raw, syn *data.Table, bins int) (Report, error) {
	if bins <= 0 {
		bins = 32
	}
	var metrics []Metric
	total, n := 0.0, 0
	for _, col := range raw.Schema.Cols {
		rawVals, err := raw.Col(col.Name)
		if err != nil {
			return Report{}, err
		}
		synVals, err := syn.Col(col.Name)
		if err != nil {
			return Report{}, fmt.Errorf("veracity: synthetic table lacks column %q: %w", col.Name, err)
		}
		var d float64
		switch col.Kind {
		case data.KindInt, data.KindFloat:
			d, err = numericDivergence(rawVals, synVals, bins)
		case data.KindString:
			d, err = categoryDivergence(rawVals, synVals)
		case data.KindBool:
			d, err = boolDivergence(rawVals, synVals)
		default:
			continue
		}
		if err != nil {
			return Report{}, fmt.Errorf("veracity: column %q: %w", col.Name, err)
		}
		metrics = append(metrics, Metric{"col_" + col.Name, d})
		total += d
		n++
	}
	if n == 0 {
		return Report{}, fmt.Errorf("veracity: no comparable columns")
	}
	out := Report{DataType: "table"}
	out.Metrics = append([]Metric{{"mean_column_divergence", total / float64(n)}}, metrics...)
	return out, nil
}

func numericDivergence(raw, syn []data.Value, bins int) (float64, error) {
	lo, hi := rangeOf(raw)
	if hi <= lo {
		hi = lo + 1
	}
	hr := stats.NewHistogram(lo, hi, bins)
	hs := stats.NewHistogram(lo, hi, bins)
	for _, v := range raw {
		if !v.IsNull() {
			hr.Observe(v.Float())
		}
	}
	for _, v := range syn {
		if !v.IsNull() {
			hs.Observe(v.Float())
		}
	}
	// Extended vectors carry the out-of-range mass in explicit edge cells,
	// so a generator spilling outside the raw range pays for that mass
	// instead of having it clamped into (or silently dropped from) the
	// boundary bins.
	p, q := hr.ExtendedProbabilities(), hs.ExtendedProbabilities()
	emd, err := stats.EarthMover1D(p, q)
	if err != nil {
		return 0, err
	}
	return emd / float64(len(p)), nil // normalize to [0,1]
}

func rangeOf(vals []data.Value) (float64, float64) {
	var s stats.Summary
	for _, v := range vals {
		if !v.IsNull() && (v.Kind() == data.KindInt || v.Kind() == data.KindFloat) {
			s.Observe(v.Float())
		}
	}
	if s.Count() == 0 {
		return 0, 1
	}
	return s.Min(), s.Max() + 1e-9
}

func categoryDivergence(raw, syn []data.Value) (float64, error) {
	fr, fs := stats.NewFreqTable(), stats.NewFreqTable()
	for _, v := range raw {
		if v.Kind() == data.KindString {
			fr.Observe(v.Str())
		}
	}
	for _, v := range syn {
		if v.Kind() == data.KindString {
			fs.Observe(v.Str())
		}
	}
	p, q := stats.AlignedProbabilities(fr, fs)
	return stats.TotalVariation(p, q)
}

func boolDivergence(raw, syn []data.Value) (float64, error) {
	frac := func(vals []data.Value) float64 {
		trues, total := 0, 0
		for _, v := range vals {
			if v.Kind() == data.KindBool {
				total++
				if v.Bool() {
					trues++
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(trues) / float64(total)
	}
	a, b := frac(raw), frac(syn)
	d := a - b
	if d < 0 {
		d = -d
	}
	return d, nil
}

// Graph compares degree structure: the primary metric is the KS statistic
// between total-degree samples; secondary metrics compare mean degree and
// the weight of the top-1% hubs.
func Graph(raw, syn *graphgen.Graph) (Report, error) {
	if raw.N == 0 || syn.N == 0 {
		return Report{}, fmt.Errorf("veracity: empty graph")
	}
	degs := func(g *graphgen.Graph) []float64 {
		in := g.InDegrees()
		out := g.OutDegrees()
		v := make([]float64, g.N)
		for i := range v {
			v[i] = float64(in[i] + out[i])
		}
		return v
	}
	dr, ds := degs(raw), degs(syn)
	ks := stats.KSStatistic(dr, ds)
	var sr, ss stats.Summary
	for _, v := range dr {
		sr.Observe(v)
	}
	for _, v := range ds {
		ss.Observe(v)
	}
	meanRatio := 0.0
	if sr.Mean() > 0 {
		meanRatio = ss.Mean() / sr.Mean()
	}
	hubShare := func(deg []float64, s stats.Summary) float64 {
		// Fraction of total degree carried by vertices above 10x mean.
		thresh := 10 * s.Mean()
		var hub, total float64
		for _, d := range deg {
			total += d
			if d > thresh {
				hub += d
			}
		}
		if total == 0 {
			return 0
		}
		return hub / total
	}
	hubDelta := hubShare(dr, sr) - hubShare(ds, ss)
	if hubDelta < 0 {
		hubDelta = -hubDelta
	}
	return Report{
		DataType: "graph",
		Metrics: []Metric{
			{"ks_degree", ks},
			{"mean_degree_ratio", meanRatio},
			{"hub_share_delta", hubDelta},
		},
	}, nil
}

// Stream compares interarrival distributions (KS) and operation mixes
// (total variation); the primary metric is the interarrival KS statistic.
func Stream(raw, syn []streamgen.Event) (Report, error) {
	if len(raw) < 2 || len(syn) < 2 {
		return Report{}, fmt.Errorf("veracity: streams too short to compare")
	}
	gaps := func(evs []streamgen.Event) []float64 {
		out := make([]float64, 0, len(evs)-1)
		for i := 1; i < len(evs); i++ {
			out = append(out, float64(evs[i].Offset-evs[i-1].Offset)/float64(time.Millisecond))
		}
		return out
	}
	ks := stats.KSStatistic(gaps(raw), gaps(syn))
	mix := func(evs []streamgen.Event) []float64 {
		counts := make([]float64, 3)
		for _, e := range evs {
			counts[e.Kind]++
		}
		for i := range counts {
			counts[i] /= float64(len(evs))
		}
		return counts
	}
	tv, err := stats.TotalVariation(mix(raw), mix(syn))
	if err != nil {
		return Report{}, err
	}
	return Report{
		DataType: "stream",
		Metrics: []Metric{
			{"ks_interarrival", ks},
			{"tv_opmix", tv},
		},
	}, nil
}

// Level is the paper's three-point veracity scale from Table 1.
type Level string

// The Table 1 levels.
const (
	LevelConsidered   Level = "Considered"
	LevelPartial      Level = "Partially Considered"
	LevelUnconsidered Level = "Un-considered"
)

// ClassifyLog maps a measured divergence onto the Table 1 scale using two
// calibration points: noiseFloor (divergence of an independent resample of
// the raw data — the best achievable) and baseline (divergence of a
// veracity-unaware generator). The scale is logarithmic: the thirds divide
// [log(noiseFloor), log(baseline)], because the floor and baseline are
// typically orders of magnitude apart (table column divergences span 0.005
// to 0.6) and a linear scale would lump every model-based generator into
// "Considered". The lower third is Considered, the upper third
// Un-considered, the middle Partially Considered.
func ClassifyLog(score, noiseFloor, baseline float64) Level {
	if noiseFloor <= 0 {
		noiseFloor = 1e-9
	}
	if score <= 0 {
		score = noiseFloor
	}
	if baseline <= noiseFloor {
		// Degenerate calibration; fall back to absolute comparison.
		if score <= noiseFloor*1.5 {
			return LevelConsidered
		}
		return LevelUnconsidered
	}
	frac := (math.Log(score) - math.Log(noiseFloor)) / (math.Log(baseline) - math.Log(noiseFloor))
	switch {
	case frac <= 1.0/3:
		return LevelConsidered
	case frac <= 2.0/3:
		return LevelPartial
	default:
		return LevelUnconsidered
	}
}
