package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	bdbench "github.com/bdbench/bdbench"
)

// corporaSpec is specs/datagen_corpora.json: which corpora one repetition
// generates, at what scale and with how many workers.
type corporaSpec struct {
	Workers int `json:"workers"`
	Corpora []struct {
		Name  string `json:"name"`
		Scale int    `json:"scale"`
	} `json:"corpora"`
}

// datagenRunner generates every corpus of the spec, one after the other.
type datagenRunner struct {
	h    *harness
	spec corporaSpec
	// single holds each corpus's digest at one worker, which the digest at
	// the spec's worker count must equal.
	single map[string]string
	// last is the latest repetition's stats, the base of the scaling probe.
	last []bdbench.DataGenStat
}

func newDatagen(ctx context.Context, h *harness) (runner, error) {
	raw, err := specFS.ReadFile("specs/datagen_corpora.json")
	if err != nil {
		return nil, err
	}
	d := &datagenRunner{h: h}
	if err := json.Unmarshal(raw, &d.spec); err != nil {
		return nil, fmt.Errorf("specs/datagen_corpora.json: %w", err)
	}
	for i, c := range d.spec.Corpora {
		d.spec.Corpora[i].Scale = h.opts.scale(c.Scale)
	}
	// Generate at one worker: the bytes may not depend on the worker count.
	stats, err := d.generate(ctx, nil, 1)
	if err != nil {
		return nil, err
	}
	d.single = map[string]string{}
	for _, s := range stats {
		d.single[s.Generator] = s.Digest
	}
	return d, nil
}

// generate builds every corpus at the given worker count.
func (d *datagenRunner) generate(ctx context.Context, rec *Recorder, workers int) ([]bdbench.DataGenStat, error) {
	stats := make([]bdbench.DataGenStat, 0, len(d.spec.Corpora))
	for _, c := range d.spec.Corpora {
		_, end := rec.Start(ctx, "datagen.build", c.Name)
		stat, err := bdbench.DataGen(c.Name, bdbench.DataGenOptions{Scale: c.Scale, Workers: workers, Seed: d.h.opts.seed})
		end()
		if err != nil {
			return nil, err
		}
		stats = append(stats, stat)
	}
	return stats, nil
}

func (d *datagenRunner) setUp() error { return nil }

func (d *datagenRunner) warmUp(ctx context.Context) error {
	_, err := d.generate(ctx, nil, d.spec.Workers)
	return err
}

func (d *datagenRunner) close() {}

func (d *datagenRunner) rep(ctx context.Context, i int) (repResult, error) {
	var mem0, mem1 runtime.MemStats
	if d.h.rec != nil {
		runtime.ReadMemStats(&mem0)
	}
	cpu0, _, err := processUsage()
	if err != nil {
		return repResult{}, err
	}
	t0 := time.Now()
	ctx, endRoot := d.h.rec.StartRoot(ctx, i, "rep", "datagen_corpora")
	stats, err := d.generate(ctx, d.h.rec, d.spec.Workers)
	endRoot()
	wall := time.Since(t0)
	if err != nil {
		return repResult{}, err
	}
	cpu1, _, err := processUsage()
	if err != nil {
		return repResult{}, err
	}
	d.last = stats

	facts := map[string]string{}
	lat := make([]int64, 0, len(stats))
	var items, bytes int64
	var busy time.Duration
	for _, s := range stats {
		items += s.Items
		bytes += s.Bytes
		busy += s.Elapsed
		lat = append(lat, int64(s.Elapsed))
		facts["digest."+s.Generator] = s.Digest
		facts["bytes."+s.Generator] = fmt.Sprint(s.Bytes)
		facts["items."+s.Generator] = fmt.Sprint(s.Items)
		if want := d.single[s.Generator]; s.Digest != want {
			d.h.problem("datagen_corpora: %s digests to %s at %d workers and to %s at 1", s.Generator, s.Digest, d.spec.Workers, want)
		}
	}
	rr := closedResult(wall, cpu1-cpu0, items, 0, lat)
	rr.facts = facts

	if d.h.rec != nil {
		runtime.ReadMemStats(&mem1)
		l := d.h.ledger
		for _, s := range stats {
			l.add("datagen."+s.Generator+".mb_s_w2", s.MBPerSec())
		}
		l.add("datagen.prep_s", busy.Seconds())
		l.add("datagen.bytes", float64(bytes))
		l.add("datagen.alloc_mb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6)
		l.add("harness.overhead_pct", 100*(1-busy.Seconds()/wall.Seconds()))
	}
	return rr, nil
}

// probe generates every corpus at one worker and sets the scaling
// efficiency: the geometric mean over the corpora of t(1 worker) ÷
// (2 × t(2 workers)), 1 when the second worker halves the time.
func (d *datagenRunner) probe(ctx context.Context) error {
	stats, err := d.generate(ctx, nil, 1)
	if err != nil {
		return err
	}
	logSum := 0.0
	for i, s := range stats {
		d.h.ledger.add("datagen."+s.Generator+".mb_s_w1", s.MBPerSec())
		logSum += math.Log(s.Elapsed.Seconds() / (float64(d.spec.Workers) * d.last[i].Elapsed.Seconds()))
	}
	d.h.ledger.add("datagen.scaling_eff", math.Exp(logSum/float64(len(stats))))
	return nil
}
