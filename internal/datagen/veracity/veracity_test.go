package veracity

import (
	"testing"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/stats"
)

func TestTextOrdering(t *testing.T) {
	// LDA-generated text must score better (lower KL) than random text
	// over the same dictionary; a resample of the reference model is the
	// noise floor and must beat both.
	raw := textgen.ReferenceCorpus(1, 150, 60)
	resample := textgen.ReferenceCorpus(2, 150, 60)
	vocab := textgen.BuildVocabulary(raw)

	lda := textgen.NewLDA(4, 0, 0)
	if err := lda.Train(raw, 30, stats.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	ldaOut, err := lda.Generate(stats.NewRNG(4), 150, 60)
	if err != nil {
		t.Fatal(err)
	}
	random := textgen.RandomText{Dictionary: vocab.Words()}.Generate(stats.NewRNG(5), 150, 60)

	rFloor, err := Text(raw, resample)
	if err != nil {
		t.Fatal(err)
	}
	rLDA, err := Text(raw, ldaOut)
	if err != nil {
		t.Fatal(err)
	}
	rRandom, err := Text(raw, random)
	if err != nil {
		t.Fatal(err)
	}
	// LDA is trained on the raw corpus itself, so it can score at or even
	// below the independent-resample floor; both must clearly beat the
	// veracity-unaware random text.
	if rLDA.Score() >= rRandom.Score()/2 {
		t.Fatalf("LDA (%.4f) should clearly beat random text (%.4f)", rLDA.Score(), rRandom.Score())
	}
	if rFloor.Score() >= rRandom.Score()/2 {
		t.Fatalf("resample floor (%.4f) should clearly beat random text (%.4f)", rFloor.Score(), rRandom.Score())
	}
}

func TestTextReportShape(t *testing.T) {
	raw := textgen.ReferenceCorpus(6, 30, 30)
	r, err := Text(raw, raw)
	if err != nil {
		t.Fatal(err)
	}
	if r.DataType != "text" || len(r.Metrics) != 4 {
		t.Fatalf("report %+v", r)
	}
	if r.Score() > 0.01 {
		t.Fatalf("self-comparison KL %.4f, want ~0", r.Score())
	}
}

func TestTableOrdering(t *testing.T) {
	raw := tablegen.ReferenceTable(11, 4000)
	resample := tablegen.ReferenceTable(12, 4000)

	level := func(l tablegen.VeracityLevel, seed uint64) *data.Table {
		spec, err := tablegen.BuildSpec(raw, l, nil, 32, seed)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Generate(4000)
	}
	score := func(syn *data.Table) float64 {
		r, err := Table(raw, syn, 32)
		if err != nil {
			t.Fatal(err)
		}
		return r.Score()
	}
	floor := score(resample)
	full := score(level(tablegen.VeracityFull, 13))
	partial := score(level(tablegen.VeracityPartial, 14))
	none := score(level(tablegen.VeracityNone, 15))
	if !(full < partial && partial < none) {
		t.Fatalf("ordering violated: full=%.4f partial=%.4f none=%.4f", full, partial, none)
	}
	if floor > full {
		// Resample should be at least as good as the profiled generator;
		// allow a tiny epsilon for histogram noise.
		if floor-full > 0.01 {
			t.Fatalf("noise floor %.4f above full-veracity %.4f", floor, full)
		}
	}
}

func TestTableErrors(t *testing.T) {
	raw := tablegen.ReferenceTable(21, 100)
	other := data.NewTable(data.Schema{Name: "o", Cols: []data.Column{{Name: "zzz", Kind: data.KindInt}}})
	if _, err := Table(raw, other, 16); err == nil {
		t.Fatal("mismatched schema accepted")
	}
	empty := data.NewTable(data.Schema{Name: "e"})
	if _, err := Table(empty, empty, 16); err == nil {
		t.Fatal("no comparable columns accepted")
	}
}

func TestGraphOrdering(t *testing.T) {
	raw := graphgen.DefaultRMAT.Generate(stats.NewRNG(31), 11)
	resample := graphgen.DefaultRMAT.Generate(stats.NewRNG(32), 11)
	er := graphgen.ErdosRenyi{EdgeFactor: 16}.Generate(stats.NewRNG(33), 11)

	rFloor, err := Graph(raw, resample)
	if err != nil {
		t.Fatal(err)
	}
	rER, err := Graph(raw, er)
	if err != nil {
		t.Fatal(err)
	}
	if rFloor.Score() >= rER.Score() {
		t.Fatalf("RMAT resample (%.4f) should beat Erdos-Renyi (%.4f)", rFloor.Score(), rER.Score())
	}
}

func TestGraphEmpty(t *testing.T) {
	if _, err := Graph(&graphgen.Graph{}, &graphgen.Graph{}); err == nil {
		t.Fatal("empty graphs accepted")
	}
}

func TestStreamOrdering(t *testing.T) {
	gen := streamgen.Generator{EventsPerSec: 1000, Arrival: streamgen.ArrivalPoisson, Mix: streamgen.Mix{UpdateFraction: 0.3}}
	raw := gen.Generate(stats.NewRNG(41), 5000)
	resample := gen.Generate(stats.NewRNG(42), 5000)
	differentShape := streamgen.Generator{EventsPerSec: 1000, Arrival: streamgen.ArrivalBursty}.Generate(stats.NewRNG(43), 5000)

	rFloor, err := Stream(raw, resample)
	if err != nil {
		t.Fatal(err)
	}
	rDiff, err := Stream(raw, differentShape)
	if err != nil {
		t.Fatal(err)
	}
	if rFloor.Score() >= rDiff.Score() {
		t.Fatalf("same-process resample (%.4f) should beat different arrival process (%.4f)",
			rFloor.Score(), rDiff.Score())
	}
	// The op-mix TV must flag the missing updates too.
	if rDiff.Metrics[1].Value <= rFloor.Metrics[1].Value {
		t.Fatalf("op-mix TV should discriminate: floor=%.4f diff=%.4f",
			rFloor.Metrics[1].Value, rDiff.Metrics[1].Value)
	}
}

func TestStreamTooShort(t *testing.T) {
	if _, err := Stream(nil, nil); err == nil {
		t.Fatal("empty streams accepted")
	}
}

func TestClassifyDegenerateCalibration(t *testing.T) {
	if got := ClassifyLog(0.1, 0.2, 0.1); got != LevelConsidered {
		t.Fatalf("degenerate low = %s", got)
	}
	if got := ClassifyLog(5.0, 0.2, 0.1); got != LevelUnconsidered {
		t.Fatalf("degenerate high = %s", got)
	}
}

func TestReportScoreEmpty(t *testing.T) {
	if (Report{}).Score() != 0 {
		t.Fatal("empty report score should be 0")
	}
}
