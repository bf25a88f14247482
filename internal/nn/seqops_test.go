package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"acme/internal/tensor"
)

func randSeq(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

// TestPoolsPreserveConstants: pooling a constant sequence returns the
// same constant.
func TestPoolsPreserveConstants(t *testing.T) {
	x := tensor.New(6, 4)
	x.Fill(3.5)
	for name, op := range map[string]SeqOp{
		"avg":  &AvgPool1D{Window: 3},
		"max":  &MaxPool1D{Window: 3},
		"down": &Downsample{},
	} {
		y := op.Forward(x)
		for _, v := range y.Data {
			if math.Abs(v-3.5) > 1e-12 {
				t.Fatalf("%s pool changed a constant input: %v", name, v)
			}
		}
	}
}

// TestMaxPoolDominatesAvgPool: per element, max over a window is ≥ the
// average over the same window.
func TestMaxPoolDominatesAvgPool(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randSeq(rng, 2+rng.Intn(8), 1+rng.Intn(6))
		maxY := (&MaxPool1D{Window: 3}).Forward(x)
		avgY := (&AvgPool1D{Window: 3}).Forward(x)
		for i := range maxY.Data {
			if maxY.Data[i] < avgY.Data[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSeqOpsShapePreserving: every NAS candidate op maps (seq × d) to
// (seq × d) — the invariant that makes element-wise block combination
// always valid.
func TestSeqOpsShapePreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []SeqOp{
		Identity{},
		&AvgPool1D{Window: 3},
		&MaxPool1D{Window: 3},
		&Downsample{},
		NewConv1D("c", 5, 6, rng),
		NewLayerNormOp("l", 6, rng),
		NewMHSA("m", 6, 2, rng),
		NewMLP("p", 6, 8, rng),
	}
	for _, rows := range []int{1, 2, 5, 9} {
		x := randSeq(rng, rows, 6)
		for i, op := range ops {
			y := op.Forward(x)
			if y.Rows != rows || y.Cols != 6 {
				t.Fatalf("op %d maps %dx6 to %dx%d", i, rows, y.Rows, y.Cols)
			}
		}
	}
}

// TestIdentityBackwardIsIdentity.
func TestIdentityBackwardIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randSeq(rng, 3, 4)
	op := Identity{}
	if op.Forward(x) != x {
		t.Fatal("identity forward must return its input")
	}
	dy := randSeq(rng, 3, 4)
	if op.Backward(dy) != dy {
		t.Fatal("identity backward must return its input")
	}
}

// TestDownsamplePairsRows: row 2k and 2k+1 of the output are equal.
func TestDownsamplePairsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSeq(rng, 6, 4)
	y := (&Downsample{}).Forward(x)
	for r := 0; r+1 < y.Rows; r += 2 {
		for j := 0; j < y.Cols; j++ {
			if y.At(r, j) != y.At(r+1, j) {
				t.Fatalf("rows %d and %d differ after downsample", r, r+1)
			}
		}
	}
}

// seqOpSet maps each NAS candidate op to a constructor; every call
// draws from the same private stream, so two calls build ops with
// identical weights.
func seqOpSet() map[string]func() SeqOp {
	fresh := func() *rand.Rand { return rand.New(rand.NewSource(99)) }
	return map[string]func() SeqOp{
		"identity":   func() SeqOp { return Identity{} },
		"avgpool":    func() SeqOp { return &AvgPool1D{Window: 3} },
		"maxpool":    func() SeqOp { return &MaxPool1D{Window: 3} },
		"downsample": func() SeqOp { return &Downsample{} },
		"conv1":      func() SeqOp { return NewConv1D("c1", 1, 6, fresh()) },
		"conv5":      func() SeqOp { return NewConv1D("c5", 5, 6, fresh()) },
		"layernorm":  func() SeqOp { return NewLayerNormOp("l", 6, fresh()) },
		"mhsa":       func() SeqOp { return NewMHSA("m", 6, 2, fresh()) },
		"mlp":        func() SeqOp { return NewMLP("p", 6, 8, fresh()) },
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSeqOpScratchReuse: an op that has already run other sequences,
// of other lengths, through its reused buffers must compute exactly
// what a fresh instance computes — nothing stale survives in the
// scratch (Conv1D's uncleared padding cells included).
func TestSeqOpScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, build := range seqOpSet() {
		used, fresh := build(), build()
		for _, rows := range []int{7, 4, 7} {
			used.Forward(randSeq(rng, rows, 6))
			used.Backward(randSeq(rng, rows, 6))
		}
		x, dy := randSeq(rng, 7, 6), randSeq(rng, 7, 6)
		ZeroGrads(used)
		yUsed := used.Forward(x).Clone()
		dxUsed := used.Backward(dy).Clone()
		yFresh := fresh.Forward(x)
		dxFresh := fresh.Backward(dy)
		if !sameBits(yUsed.Data, yFresh.Data) || !sameBits(dxUsed.Data, dxFresh.Data) {
			t.Errorf("%s: reused buffers changed the result", name)
		}
		for i, p := range used.Params() {
			if !sameBits(p.Grad.Data, fresh.Params()[i].Grad.Data) {
				t.Errorf("%s: reused buffers changed gradient %s", name, p.Name)
			}
		}
	}
}

// TestBackwardParamsMatchesBackward: skipping the input gradient leaves
// every parameter gradient bit-identical.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, build := range seqOpSet() {
		full, params := build(), build()
		x, dy := randSeq(rng, 7, 6), randSeq(rng, 7, 6)
		full.Forward(x)
		full.Backward(dy)
		params.Forward(x)
		params.BackwardParams(dy)
		for i, p := range full.Params() {
			if !sameBits(p.Grad.Data, params.Params()[i].Grad.Data) {
				t.Errorf("%s: BackwardParams gradient %s differs", name, p.Name)
			}
		}
	}
}

// BenchmarkConv1DBackward is the layer view of the dead-input skip: a
// conv5 over 9 tokens of width 32 with and without its input gradient.
func BenchmarkConv1DBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D("c", 5, 32, rng)
	x, dy := randSeq(rng, 9, 32), randSeq(rng, 9, 32)
	c.Forward(x)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Backward(dy)
		}
	})
	b.Run("params-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.BackwardParams(dy)
		}
	})
}
