package acme

// One benchmark per table and figure of the paper's evaluation section
// (§IV), plus the ablation benches called out in DESIGN.md. Each bench
// regenerates its experiment through internal/experiments — the same
// runners cmd/acmebench uses — and reports the headline metric via
// b.ReportMetric so `go test -bench` output doubles as a results
// summary. EXPERIMENTS.md records paper-reported vs measured values.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"acme/internal/experiments"
)

// metric extracts a float from a rendered table cell like "0.912",
// "21.5M", "+5.9%" or "1.0%".
func metric(cell string) float64 {
	s := strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), "M")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// row finds the first row whose first cell equals key.
func row(t *experiments.Table, key string) []string {
	for _, r := range t.Rows {
		if r[0] == key {
			return r
		}
	}
	return nil
}

func BenchmarkFig1MotivationSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1a()
		if len(t.Rows) != 12 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkFig1MotivationArchSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1b()
		if len(t.Rows) == 0 {
			b.Fatal("empty spread table")
		}
	}
}

func BenchmarkTable1CostEfficiency(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(2)
		r := row(t, "10")
		if r == nil {
			b.Fatal("missing N=10 row")
		}
		ratio = metric(r[6])
	}
	b.ReportMetric(ratio, "upload-ratio-%")
}

func BenchmarkFig7aBaselineComparison(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7a()
		r := row(t, "ACME best (ours)")
		if r == nil {
			b.Fatal("missing ACME row")
		}
		acc = metric(r[2])
	}
	b.ReportMetric(acc, "acme-accuracy")
}

func BenchmarkFig7bHeaderComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7b()
		if len(t.Rows) != 6 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkFig8HeaderBackboneGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig8()
		if len(t.Rows) != 16 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
		for _, note := range t.Notes {
			if strings.Contains(note, "WARNING") {
				b.Fatal(note)
			}
		}
	}
}

func BenchmarkFig9MatchingMethods(b *testing.B) {
	var tradeoff float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9()
		r := row(t, "ours-pfg")
		if r == nil {
			b.Fatal("missing ours-pfg row")
		}
		tradeoff = metric(r[7])
	}
	b.ReportMetric(tradeoff, "pfg-tradeoff")
}

func BenchmarkFig10SimilarityHeatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 10 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkFig11AggregationMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig11(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkFig12HeaderComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig12()
		if len(t.Rows) != 18 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkFig13StanfordCars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ta := experiments.Fig13a()
		tb := experiments.Fig13b()
		if len(ta.Rows) == 0 || len(tb.Rows) == 0 {
			b.Fatal("empty cars tables")
		}
	}
}

func BenchmarkTable1MeasuredTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1Measured(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDistillation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationDistillation()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 3 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkAblationNASController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationController(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLoopRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLoopRounds(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParetoVsWeightedSum isolates the matcher comparison
// from Fig. 9 (the weighted-sum scalarization row is the ablation
// comparator).
func BenchmarkAblationParetoVsWeightedSum(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9()
		ours := row(t, "ours-pfg")
		ws := row(t, "weighted-sum")
		if ours == nil || ws == nil {
			b.Fatal("missing matcher rows")
		}
		gap = metric(ours[1]) - metric(ws[1]) // accuracy advantage
	}
	b.ReportMetric(gap, "accuracy-gap")
}

// BenchmarkEndToEndPipeline measures a full micro-scale ACME run.
func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.MicroConfig()
		cfg.Seed = int64(i + 1)
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(b.Context()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTopKSparsification measures the uplink saving of
// top-k importance-set sparsification on a real pipeline run.
func BenchmarkAblationTopKSparsification(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		run := func(topk float64) int64 {
			cfg := experiments.MicroConfig()
			cfg.Wire.TopKFraction = topk
			sys, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			return res.UploadBytes
		}
		dense := run(0)
		sparse := run(0.25)
		reduction = 1 - float64(sparse)/float64(dense)
	}
	b.ReportMetric(reduction*100, "uplink-saved-%")
}

// BenchmarkFig7bMicroRealStack regenerates the real-stack header
// comparison (actual NAS + actual training, not the surrogate).
func BenchmarkFig7bMicroRealStack(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7bMicro(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
		gain = metric(t.Rows[0][6])
	}
	b.ReportMetric(gain, "nas-gain-%")
}

// BenchmarkExtOpSet compares the default and extended NAS operation
// sets under identical budgets.
func BenchmarkExtOpSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExtOpSet()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}
