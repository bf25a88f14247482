package core

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"
)

func sortReportsByID(rep []DeviceReport) {
	sort.Slice(rep, func(i, j int) bool { return rep[i].DeviceID < rep[j].DeviceID })
}

func runWith(t *testing.T, entropy bool, quant QuantMode) *Result {
	t.Helper()
	cfg := tinyConfig()
	cfg.Wire.Entropy = entropy
	cfg.Wire.Quantization = quant
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWireFormatEquivalence asserts the headline property of the two
// wire formats a run can travel in: a seeded run produces
// bitwise-identical Reports and Assignments whether its bulk payloads
// go out as plain binary frames or entropy-coded ones — only the
// measured traffic changes, and never upward.
func TestWireFormatEquivalence(t *testing.T) {
	binRes := runWith(t, false, QuantLossless)
	entRes := runWith(t, true, QuantLossless)

	sortReportsByID(binRes.Reports)
	sortReportsByID(entRes.Reports)
	if !reflect.DeepEqual(binRes.Reports, entRes.Reports) {
		t.Fatalf("entropy frames diverge from plain binary:\n bin: %+v\n ent: %+v", binRes.Reports, entRes.Reports)
	}
	if !reflect.DeepEqual(binRes.Assignments, entRes.Assignments) {
		t.Fatalf("assignments diverge:\n bin: %+v\n ent: %+v", binRes.Assignments, entRes.Assignments)
	}
	if entRes.UploadBytes >= binRes.UploadBytes {
		t.Fatalf("entropy upload %d vs plain binary %d: want a reduction", entRes.UploadBytes, binRes.UploadBytes)
	}
}

// TestInt8QuantizationShrinksUpload asserts the opt-in int8 mode cuts
// the Phase 2-2 importance uplink at least 3× below lossless float32
// while the pipeline still completes with sane accuracy.
func TestInt8QuantizationShrinksUpload(t *testing.T) {
	f32Res := runWith(t, false, QuantLossless)
	q8Res := runWith(t, false, QuantInt8)

	loopUp := func(res *Result) (n int64) {
		for _, rs := range res.Phase2Rounds {
			n += rs.UploadBytes
		}
		return n
	}
	if 3*loopUp(q8Res) > loopUp(f32Res) {
		t.Fatalf("int8 importance upload %d vs lossless %d: want ≥3× reduction", loopUp(q8Res), loopUp(f32Res))
	}
	if len(q8Res.Reports) != len(f32Res.Reports) {
		t.Fatalf("int8 run lost reports: %d vs %d", len(q8Res.Reports), len(f32Res.Reports))
	}
	// Quantized importance ranking may perturb accuracy slightly, but
	// the run must remain in the same regime as lossless.
	if q8Res.MeanAccuracyFinal() < f32Res.MeanAccuracyFinal()-0.15 {
		t.Fatalf("int8 accuracy %.3f collapsed vs lossless %.3f",
			q8Res.MeanAccuracyFinal(), f32Res.MeanAccuracyFinal())
	}
}

// TestQuantizedRunDeterminism asserts quantized modes are themselves
// deterministic: two identically-seeded int8 runs match bitwise.
func TestQuantizedRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	a := runWith(t, false, QuantInt8)
	b := runWith(t, false, QuantInt8)
	// Collector arrival order is scheduling-dependent; compare sorted.
	sortReportsByID(a.Reports)
	sortReportsByID(b.Reports)
	if !reflect.DeepEqual(a.Reports, b.Reports) {
		t.Fatal("int8 runs with identical seeds diverge")
	}
}
