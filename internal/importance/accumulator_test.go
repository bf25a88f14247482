package importance

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAccumulatorMatchesSingleShot: a Reset followed by one FoldBatches
// over the full budget, averaged, must be bitwise identical to an
// independent fresh accumulator fed the same rng stream — the property
// that makes incremental mode with refresh period 1 reproduce the
// legacy recompute exactly.
func TestAccumulatorMatchesSingleShot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := testClassifier(t, rng)
	ds := testDataset(rng)

	fresh := NewAccumulator()
	if _, err := fresh.FoldBatches(c, ds, 8, 4, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Average()
	if err != nil {
		t.Fatal(err)
	}

	reused := NewAccumulator()
	// Pollute with unrelated folds, then Reset: the refresh path.
	if _, err := reused.FoldBatches(c, ds, 8, 2, rand.New(rand.NewSource(77))); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if reused.Batches() != 0 {
		t.Fatalf("reset left %d batches", reused.Batches())
	}
	if _, err := reused.FoldBatches(c, ds, 8, 4, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	got, err := reused.Average()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Layers, want.Layers) {
		t.Fatal("refresh path diverges from a fresh accumulation")
	}
}

// TestAccumulatorIncrementalFolds: folding in two installments equals
// one running average over all folded batches, and Average leaves the
// running sum undisturbed for later folds.
func TestAccumulatorIncrementalFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := testClassifier(t, rng)
	ds := testDataset(rng)

	acc := NewAccumulator()
	n1, err := acc.FoldBatches(c, ds, 8, 2, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := acc.FoldBatches(c, ds, 8, 2, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Batches() != n1+n2 {
		t.Fatalf("batches %d, want %d", acc.Batches(), n1+n2)
	}
	full, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	// The second average covers more batches, so it must differ from
	// the first (the fold really extended the sum)…
	if reflect.DeepEqual(mid.Layers, full.Layers) {
		t.Fatal("second fold did not change the running average")
	}
	// …and equal sum/batches: un-averaging both must agree on the sum
	// contributed by the first installment's batches.
	midSum := mid.Clone()
	midSum.Scale(float64(n1))
	fullSum := full.Clone()
	fullSum.Scale(float64(n1 + n2))
	for i := range fullSum.Layers {
		for j := range fullSum.Layers[i] {
			if fullSum.Layers[i][j] < midSum.Layers[i][j]-1e-9 {
				t.Fatalf("running sum shrank at layer %d[%d]", i, j)
			}
		}
	}
}

// TestAccumulatorEdgeCases pins the empty-accumulator and zero-batch
// behaviours.
func TestAccumulatorEdgeCases(t *testing.T) {
	acc := NewAccumulator()
	if _, err := acc.Average(); err == nil {
		t.Fatal("average of never-folded accumulator accepted")
	}
	rng := rand.New(rand.NewSource(7))
	c := testClassifier(t, rng)
	ds := testDataset(rng)
	// maxBatches 0 folds nothing but adopts the shape: Average is the
	// zero set (matching the legacy behaviour on an empty dataset).
	if _, err := acc.FoldBatches(c, ds, 8, 0, rng); err != nil {
		t.Fatal(err)
	}
	avg, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range avg.Layers {
		for _, v := range l {
			if v != 0 {
				t.Fatal("zero-batch average is non-zero")
			}
		}
	}
	// The gradients were borrowed for the fold and are given back.
	for _, p := range c.Params() {
		if p.Grad != nil {
			t.Fatalf("%s kept gradient storage after the fold", p.Name)
		}
	}
}
