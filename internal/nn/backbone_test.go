package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"acme/internal/tensor"
)

func newTestBackbone(t *testing.T, seed int64) *Backbone {
	t.Helper()
	bb, err := NewBackbone(BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 4, Hidden: 12, Depth: 3,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

func TestBackboneConfigValidation(t *testing.T) {
	bad := []BackboneConfig{
		{InputDim: 15, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 4, Depth: 1}, // indivisible patches
		{InputDim: 16, NumPatches: 4, DModel: 9, NumHeads: 2, Hidden: 4, Depth: 1}, // indivisible heads
		{InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 4, Depth: 0}, // zero depth
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestScaleWidthCounts(t *testing.T) {
	bb := newTestBackbone(t, 1)
	if err := bb.ScaleWidth(0.5); err != nil {
		t.Fatal(err)
	}
	for l, blk := range bb.Blocks {
		if got := blk.Attn.ActiveHeads(); got != 2 {
			t.Fatalf("block %d: %d heads, want 2", l, got)
		}
		if got := blk.FFN.ActiveNeurons(); got != 6 {
			t.Fatalf("block %d: %d neurons, want 6", l, got)
		}
	}
	// ceil semantics: w=0.3 on 4 heads keeps 2.
	bb2 := newTestBackbone(t, 2)
	if err := bb2.ScaleWidth(0.3); err != nil {
		t.Fatal(err)
	}
	if got := bb2.Blocks[0].Attn.ActiveHeads(); got != 2 {
		t.Fatalf("ceil(0.3·4) heads = %d, want 2", got)
	}
}

func TestScaleWidthRejectsBadFactor(t *testing.T) {
	bb := newTestBackbone(t, 3)
	if bb.ScaleWidth(0) == nil || bb.ScaleWidth(1.2) == nil {
		t.Fatal("invalid width accepted")
	}
}

func TestSetDepthAffectsForwardAndParams(t *testing.T) {
	bb := newTestBackbone(t, 4)
	x := make([]float64, 16)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full, err := bb.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	fullCopy := full.Clone()
	fullParams := bb.ActiveParamCount()

	if err := bb.SetDepth(1); err != nil {
		t.Fatal(err)
	}
	shallow, err := bb.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if matEqual(fullCopy, shallow, 1e-9) {
		t.Fatal("depth change did not alter the representation")
	}
	if bb.ActiveParamCount() >= fullParams {
		t.Fatal("shallower model not smaller")
	}
	if bb.SetDepth(0) == nil || bb.SetDepth(4) == nil {
		t.Fatal("invalid depth accepted")
	}
}

func TestActiveParamCountMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bb, err := NewBackbone(BackboneConfig{
			InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 4, Hidden: 12, Depth: 3,
		}, rng)
		if err != nil {
			return false
		}
		w1 := 0.25 + 0.5*rng.Float64()
		w2 := math.Min(w1+0.25, 1)
		bbA := bb.Clone()
		if bbA.ScaleWidth(w1) != nil {
			return false
		}
		bbB := bb.Clone()
		if bbB.ScaleWidth(w2) != nil {
			return false
		}
		return bbA.ActiveParamCount() <= bbB.ActiveParamCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneMatchesForward(t *testing.T) {
	bb := newTestBackbone(t, 6)
	bb.Blocks[1].Attn.HeadImportance[2] = 5
	if err := bb.ScaleWidth(0.75); err != nil {
		t.Fatal(err)
	}
	if err := bb.SetDepth(2); err != nil {
		t.Fatal(err)
	}
	clone := bb.Clone()
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a, err := bb.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clone.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(a, b, 1e-12) {
		t.Fatal("clone forward differs")
	}
	// Mutating the clone must not touch the original.
	clone.Params()[0].Value.Fill(0)
	c, err := bb.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(a, c, 1e-12) {
		t.Fatal("clone shares storage with original")
	}
}

func TestTokenizeMatchesForwardInput(t *testing.T) {
	bb := newTestBackbone(t, 8)
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	tokens := bb.tokenize(x).Clone()
	if _, err := bb.Forward(x); err != nil {
		t.Fatal(err)
	}
	if !matEqual(tokens, bb.Embedding(), 1e-12) {
		t.Fatal("tokenize differs from Forward's embedding")
	}
	if _, err := bb.Forward(x[:3]); err == nil {
		t.Fatal("bad input size accepted")
	}
}

func TestCrossEntropyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := make([]float64, 2+rng.Intn(8))
		for i := range logits {
			logits[i] = 3 * rng.NormFloat64()
		}
		label := rng.Intn(len(logits))
		grad := make([]float64, len(logits))
		loss := CrossEntropy(grad, logits, label)
		if loss < 0 {
			return false
		}
		// Gradient components sum to zero: Σ(p − onehot) = 1 − 1.
		var sum float64
		for _, g := range grad {
			sum += g
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// A confident correct prediction has near-zero loss.
	loss := CrossEntropy(make([]float64, 3), []float64{100, 0, 0}, 0)
	if loss > 1e-6 {
		t.Fatalf("confident correct loss %v", loss)
	}
}

func TestPenultimateIdentity(t *testing.T) {
	bb := newTestBackbone(t, 10)
	if err := bb.SetDepth(2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if _, err := bb.Forward(x); err != nil {
		t.Fatal(err)
	}
	pen := bb.Penultimate()
	hidden := bb.HiddenStates()
	// Penultimate is the input of the last block = output of block 0.
	if !matEqual(pen, hidden[0], 1e-12) {
		t.Fatal("penultimate mismatch")
	}
}

// TestScoreMatchesTwoPasses: the one-pass Score returns exactly the
// mean loss and accuracy the two separate passes do (the Phase 1 sweep
// ranks candidates on these bits).
func TestScoreMatchesTwoPasses(t *testing.T) {
	b := newTestBackbone(t, 9)
	rng := rand.New(rand.NewSource(10))
	c := NewBackboneClassifier(b, 4, rng)
	xs, ys := make([][]float64, 37), make([]int, 37)
	for i := range xs {
		xs[i] = make([]float64, b.Cfg.InputDim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		ys[i] = rng.Intn(4)
	}
	var total float64
	for i, x := range xs {
		logits, err := c.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		l := CrossEntropy(make([]float64, len(logits)), logits, ys[i])
		total += l
	}
	wantAcc, err := Evaluate(c, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	loss, acc, err := Score(c, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if wantLoss := total / float64(len(xs)); loss != wantLoss || acc != wantAcc {
		t.Fatalf("Score = (%v, %v), two passes give (%v, %v)", loss, acc, wantLoss, wantAcc)
	}
}

// BenchmarkBackboneForward is one sample through the default-sized
// backbone; after the first sample it should report 0 allocs/op.
func BenchmarkBackboneForward(b *testing.B) {
	bb, err := NewBackbone(BackboneConfig{
		InputDim: 64, NumPatches: 8, DModel: 32, NumHeads: 4, Hidden: 64, Depth: 4,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 16)
	for i := range xs {
		xs[i] = make([]float64, bb.Cfg.InputDim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	if _, err := bb.Forward(xs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Forward(xs[i%len(xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// matEqual reports whether a and b have the same shape and elements
// within tol.
func matEqual(a, b *tensor.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
