package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// requireSameParams: same names, shapes and value bits, in order.
func requireSameParams(t *testing.T, want, got []*Param) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d params, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Value.Rows != w.Value.Rows || g.Value.Cols != w.Value.Cols {
			t.Fatalf("param %d is %s %dx%d, want %s %dx%d", i, g.Name, g.Value.Rows, g.Value.Cols, w.Name, w.Value.Rows, w.Value.Cols)
		}
		for k, v := range w.Value.Data {
			if math.Float64bits(g.Value.Data[k]) != math.Float64bits(v) {
				t.Fatalf("param %s entry %d: %v, want %v", w.Name, k, g.Value.Data[k], v)
			}
		}
	}
}

// TestReceivedBackboneDrawsNothingAndHoldsNoGradients: a nil rng builds
// the shell of a model — zero weights, unit LayerNorm gains, no
// gradient storage — and the first ZeroGrads makes it trainable.
func TestReceivedBackboneDrawsNothingAndHoldsNoGradients(t *testing.T) {
	fresh := newTestBackbone(t, 3)
	recv, err := NewBackbone(fresh.Cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	gains := 0
	for i, p := range recv.Params() {
		if p.Grad != nil {
			t.Fatalf("received param %s holds gradient storage", p.Name)
		}
		if fresh.Params()[i].Grad == nil {
			t.Fatalf("fresh param %s holds no gradient storage", p.Name)
		}
		want := 0.0
		if strings.HasSuffix(p.Name, ".gain") {
			want = 1
			gains++
		}
		for k, v := range p.Value.Data {
			if v != want {
				t.Fatalf("received param %s entry %d is %v, want %v", p.Name, k, v, want)
			}
		}
	}
	if gains != 2*fresh.Cfg.Depth+1 {
		t.Fatalf("%d LayerNorm gains found, want %d", gains, 2*fresh.Cfg.Depth+1)
	}
	ZeroGrads(recv)
	for _, p := range recv.Params() {
		if p.Grad == nil || p.Grad.Rows != p.Value.Rows || p.Grad.Cols != p.Value.Cols {
			t.Fatalf("param %s has no gradient storage after ZeroGrads", p.Name)
		}
	}
}

// TestBackboneCloneIsBitExactAndTrainsLikeTheSource: the clone carries
// the source's parameters, masks, importances and depth bit for bit,
// holds no gradients until it trains, and then takes exactly the steps
// the source takes.
func TestBackboneCloneIsBitExactAndTrainsLikeTheSource(t *testing.T) {
	bb := newTestBackbone(t, 4)
	rng := rand.New(rand.NewSource(5))
	for _, blk := range bb.Blocks {
		for i := range blk.Attn.HeadImportance {
			blk.Attn.HeadImportance[i] = rng.Float64()
		}
		for i := range blk.FFN.NeuronImportance {
			blk.FFN.NeuronImportance[i] = rng.Float64()
		}
	}
	if err := bb.ScaleWidth(0.75); err != nil {
		t.Fatal(err)
	}
	if err := bb.SetDepth(2); err != nil {
		t.Fatal(err)
	}
	clone := bb.Clone()
	requireSameParams(t, bb.Params(), clone.Params())
	if clone.ActiveDepth != bb.ActiveDepth || clone.ActiveParamCount() != bb.ActiveParamCount() {
		t.Fatal("clone differs in depth or active size")
	}
	for l, blk := range bb.Blocks {
		c := clone.Blocks[l]
		for i := range blk.Attn.HeadMask {
			if c.Attn.HeadMask[i] != blk.Attn.HeadMask[i] || c.Attn.HeadImportance[i] != blk.Attn.HeadImportance[i] {
				t.Fatalf("block %d head %d differs", l, i)
			}
		}
		for i := range blk.FFN.NeuronMask {
			if c.FFN.NeuronMask[i] != blk.FFN.NeuronMask[i] || c.FFN.NeuronImportance[i] != blk.FFN.NeuronImportance[i] {
				t.Fatalf("block %d neuron %d differs", l, i)
			}
		}
	}
	for _, p := range clone.Params() {
		if p.Grad != nil {
			t.Fatalf("clone param %s holds gradient storage before training", p.Name)
		}
	}

	xs := make([][]float64, 12)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, bb.Cfg.InputDim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		ys[i] = rng.Intn(3)
	}
	head := NewLinear("head", bb.Cfg.DModel, 3, rng)
	a := &BackboneClassifier{Backbone: bb, Head: head}
	b := &BackboneClassifier{Backbone: clone, Head: &Linear{In: head.In, Out: head.Out, W: head.W.Clone(), B: head.B.Clone()}}
	for _, c := range []*BackboneClassifier{a, b} {
		if _, err := TrainEpoch(c, NewAdam(1e-2), xs, ys, 4, rand.New(rand.NewSource(6))); err != nil {
			t.Fatal(err)
		}
	}
	requireSameParams(t, a.Params(), b.Params())
}

// TestBackboneForwardAllocatesNothing: after the first sample a forward
// pass, through the classifier too, runs entirely in per-instance
// buffers.
func TestBackboneForwardAllocatesNothing(t *testing.T) {
	bb := newTestBackbone(t, 7)
	c := NewBackboneClassifier(bb, 3, rand.New(rand.NewSource(8)))
	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = make([]float64, bb.Cfg.InputDim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	next := 0
	forward := func() {
		if _, err := bb.Forward(xs[next%len(xs)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	forward()
	if n := testing.AllocsPerRun(20, forward); n != 0 {
		t.Fatalf("Backbone.Forward allocates %v objects per sample", n)
	}
	classify := func() {
		if _, err := c.Forward(xs[next%len(xs)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	classify()
	if n := testing.AllocsPerRun(20, classify); n != 0 {
		t.Fatalf("BackboneClassifier.Forward allocates %v objects per sample", n)
	}
}

// TestBackboneForwardBuffersCarryNoState: what a reused instance
// computes for a sample does not depend on the samples, or the depths,
// it ran before.
func TestBackboneForwardBuffersCarryNoState(t *testing.T) {
	bb := newTestBackbone(t, 10)
	rng := rand.New(rand.NewSource(11))
	sample := func() []float64 {
		x := make([]float64, bb.Cfg.InputDim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	for _, depth := range []int{3, 1, 2, 3} {
		if err := bb.SetDepth(depth); err != nil {
			t.Fatal(err)
		}
		if _, err := bb.Forward(sample()); err != nil {
			t.Fatal(err)
		}
		x := sample()
		got, err := bb.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		once := bb.Clone()
		want, err := once.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("depth %d: final entry %d is %v on a reused instance, %v on a new one", depth, i, got.Data[i], w)
			}
		}
		if len(bb.HiddenStates()) != depth {
			t.Fatalf("depth %d: %d hidden states", depth, len(bb.HiddenStates()))
		}
		for l, h := range bb.HiddenStates() {
			for i, w := range once.HiddenStates()[l].Data {
				if math.Float64bits(h.Data[i]) != math.Float64bits(w) {
					t.Fatalf("depth %d: hidden state %d entry %d differs", depth, l, i)
				}
			}
		}
		for i, w := range once.Penultimate().Data {
			if math.Float64bits(bb.Penultimate().Data[i]) != math.Float64bits(w) {
				t.Fatalf("depth %d: penultimate entry %d differs", depth, i)
			}
		}
	}
}
