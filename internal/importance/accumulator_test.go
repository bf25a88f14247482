package importance

import (
	"math/rand"
	"reflect"
	"testing"

	"acme/internal/nn"
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
	if reused.batches != 0 {
		t.Fatalf("reset left %d batches", reused.batches)
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
	if acc.batches != n1+n2 {
		t.Fatalf("batches %d, want %d", acc.batches, n1+n2)
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

// TestAverageIntoLeasedRows: AverageInto on a lease is Average bit for
// bit, its rows come from the lease, and Release gives them all back.
func TestAverageIntoLeasedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := testClassifier(t, rng)
	ds := testDataset(rng)
	acc := NewAccumulator()
	if _, err := acc.FoldBatches(c, ds, 8, 3, rng); err != nil {
		t.Fatal(err)
	}
	want, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	var rows nn.Lease
	got, err := acc.AverageInto(&rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Layers, want.Layers) {
		t.Fatal("AverageInto differs from Average")
	}
	if nn.Lent() == 0 {
		t.Fatal("AverageInto leased nothing")
	}
	rows.Release()
	if n := nn.Lent(); n != 0 {
		t.Fatalf("%d slabs still lent after Release", n)
	}
}

// TestAccumulatorLeaseLifetimes: under a round's lease, AverageInto that
// lease hands the sum itself over as the average — bit for bit the
// copy Average makes, no second set cut — and the next fold starts a
// new sum; under a lease of its own the sum outlives the average and
// later folds extend it, as on an accumulator that allocates its sum.
func TestAccumulatorLeaseLifetimes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := testClassifier(t, rng)
	ds := testDataset(rng)
	fold := func(acc *Accumulator, seed int64) {
		t.Helper()
		if _, err := acc.FoldBatches(c, ds, 8, 3, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	}

	ref := NewAccumulator()
	fold(ref, 1)
	want, err := ref.Average()
	if err != nil {
		t.Fatal(err)
	}
	var round nn.Lease
	acc := NewAccumulator()
	acc.UseLease(&round)
	for r := 0; r < 2; r++ {
		acc.Reset()
		fold(acc, 1)
		lent := nn.Lent()
		got, err := acc.AverageInto(&round)
		if err != nil {
			t.Fatal(err)
		}
		if nn.Lent() != lent {
			t.Fatalf("round %d: the average cut %d more slabs", r, nn.Lent()-lent)
		}
		if !reflect.DeepEqual(got.Layers, want.Layers) {
			t.Fatalf("round %d: handed-over average differs from Average", r)
		}
		if _, err := acc.Average(); err == nil {
			t.Fatalf("round %d: the accumulator still holds the handed-over sum", r)
		}
		round.Release()
	}

	var own, rows nn.Lease
	acc.UseLease(&own)
	fold(acc, 1)
	fold(ref, 2)
	fold(acc, 2)
	want, err = ref.Average()
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.AverageInto(&rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Layers, want.Layers) {
		t.Fatal("incremental sum under its own lease differs from an allocated one")
	}
	rows.Release()
	if _, err := acc.Average(); err != nil {
		t.Fatalf("the sum did not outlive its average: %v", err)
	}
	own.Release()
	if n := nn.Lent(); n != 0 {
		t.Fatalf("%d slabs still lent", n)
	}
}
