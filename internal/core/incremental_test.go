package core

import (
	"math"
	"reflect"
	"testing"
)

// TestIncrementalRefreshOneBitwiseEquivalence is the incremental
// acceptance property: with a refresh period of 1 every round is a
// full recompute, so a seeded run must produce bitwise-identical
// Reports and Assignments with the incremental plumbing engaged or
// disabled — in both the dense and the delta+mixed exchange.
func TestIncrementalRefreshOneBitwiseEquivalence(t *testing.T) {
	base := tinyConfig()
	base.Phase2Rounds = 3

	variant := func(refresh int, quant QuantMode, delta bool) *Result {
		cfg := base
		cfg.ImportanceRefreshPeriod = refresh
		cfg.Wire.Quantization = quant
		cfg.Wire.DeltaImportance = delta
		return runCfg(t, cfg)
	}

	for _, tc := range []struct {
		name  string
		quant QuantMode
		delta bool
	}{
		{"dense-lossless", QuantLossless, false},
		{"delta-mixed", QuantMixed, true},
	} {
		full := variant(0, tc.quant, tc.delta)
		refresh1 := variant(1, tc.quant, tc.delta)
		sortReportsByID(full.Reports)
		sortReportsByID(refresh1.Reports)
		if !reflect.DeepEqual(full.Reports, refresh1.Reports) {
			t.Fatalf("%s: refresh-period-1 Reports diverge from full recompute", tc.name)
		}
		if !reflect.DeepEqual(full.Assignments, refresh1.Assignments) {
			t.Fatalf("%s: refresh-period-1 Assignments diverge from full recompute", tc.name)
		}
	}
}

// TestIncrementalBoundedDrift: with a refresh period above 1 the
// incremental accumulator folds new batches against slightly stale
// parameters (the compute/communication overlap), so results may
// differ from the full recompute — but only within a bounded envelope,
// and with strictly less critical-path importance compute.
func TestIncrementalBoundedDrift(t *testing.T) {
	cfg := tinyConfig()
	cfg.Phase2Rounds = 4

	full := runCfg(t, cfg)

	inc := cfg
	inc.ImportanceRefreshPeriod = 4
	incRes := runCfg(t, inc)

	if math.Abs(incRes.MeanAccuracyFinal()-full.MeanAccuracyFinal()) > 0.15 {
		t.Fatalf("incremental accuracy %.3f drifted beyond bound from full %.3f",
			incRes.MeanAccuracyFinal(), full.MeanAccuracyFinal())
	}

	// Critical-path batch counts: full recomputes 8 per round; the
	// incremental run folds 8 on refresh rounds and prefolds the rest
	// while uploads are in flight, so its critical-path folds must be
	// well below the full run's.
	batches := func(r *Result) (critical, prefolded int) {
		for _, dr := range r.DeviceRounds {
			critical += dr.Batches
			prefolded += dr.PrefoldBatches
		}
		return critical, prefolded
	}
	fullCrit, fullPre := batches(full)
	incCrit, incPre := batches(incRes)
	if fullPre != 0 {
		t.Fatalf("full recompute prefolded %d batches; overlap must be off", fullPre)
	}
	if incPre == 0 {
		t.Fatal("incremental run prefolded nothing; compute/communication overlap is not engaging")
	}
	if 2*incCrit > fullCrit {
		t.Fatalf("incremental critical-path folds %d vs full %d: want ≥2× reduction", incCrit, fullCrit)
	}

	// The device trace is recorded per executed round, ordered by
	// (DeviceID, Round).
	for i := 1; i < len(incRes.DeviceRounds); i++ {
		a, b := incRes.DeviceRounds[i-1], incRes.DeviceRounds[i]
		if a.DeviceID > b.DeviceID || (a.DeviceID == b.DeviceID && a.Round >= b.Round) {
			t.Fatalf("device rounds out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestIncrementalConfigValidation pins the refresh period's validation.
func TestIncrementalConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.ImportanceRefreshPeriod = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative refresh period accepted")
	}
}
