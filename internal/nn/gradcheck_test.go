package nn

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/tensor"
)

// numericGrad computes a centered finite-difference gradient of loss()
// with respect to element i of p.
func numericGrad(p *Param, i int, loss func() float64) float64 {
	const h = 1e-5
	orig := p.Value.Data[i]
	p.Value.Data[i] = orig + h
	lp := loss()
	p.Value.Data[i] = orig - h
	lm := loss()
	p.Value.Data[i] = orig
	return (lp - lm) / (2 * h)
}

// checkGrads compares analytic and numeric gradients on a sample of
// elements from every parameter of m.
func checkGrads(t *testing.T, m Module, loss func() float64, backward func(), rng *rand.Rand) {
	t.Helper()
	ZeroGrads(m)
	backward()
	for _, p := range m.Params() {
		n := p.NumParams()
		checks := 5
		if n < checks {
			checks = n
		}
		for c := 0; c < checks; c++ {
			i := rng.Intn(n)
			got := p.Grad.Data[i]
			want := numericGrad(p, i, loss)
			tol := 1e-4 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Errorf("%s[%d]: analytic %.6g numeric %.6g", p.Name, i, got, want)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("lin", 4, 3, rng)
	x := tensor.New(2, 4)
	x.Randomize(rng, 1)
	target := tensor.New(2, 3)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	loss := func() float64 {
		y := l.Forward(x)
		return MSE(dy, y, target)
	}
	backward := func() {
		y := l.Forward(x)
		MSE(dy, y, target)
		l.Backward(dy)
	}
	checkGrads(t, l, loss, backward, rng)
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ln := NewLayerNorm("ln", 6, rng)
	ln.Gain.Value.Randomize(rng, 1)
	ln.Bias.Value.Randomize(rng, 0.5)
	x := tensor.New(3, 6)
	x.Randomize(rng, 1)
	target := tensor.New(3, 6)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	loss := func() float64 {
		return MSE(dy, ln.Forward(x), target)
	}
	backward := func() {
		MSE(dy, ln.Forward(x), target)
		ln.Backward(dy)
	}
	checkGrads(t, ln, loss, backward, rng)
}

func TestLayerNormInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm("ln", 5, rng)
	x := tensor.New(2, 5)
	x.Randomize(rng, 1)
	target := tensor.New(2, 5)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)
	probe := tensor.New(target.Rows, target.Cols) // the probes' gradients, unread

	MSE(dy, ln.Forward(x), target)
	dx := ln.Backward(dy)

	const h = 1e-5
	for _, i := range []int{0, 3, 7, 9} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := MSE(probe, ln.Forward(x), target)
		x.Data[i] = orig - h
		lm := MSE(probe, ln.Forward(x), target)
		x.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(dx.Data[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dx[%d]: analytic %.6g numeric %.6g", i, dx.Data[i], want)
		}
	}
}

func TestMHSAGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMHSA("attn", 8, 2, rng)
	x := tensor.New(3, 8)
	x.Randomize(rng, 1)
	target := tensor.New(3, 8)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	loss := func() float64 {
		return MSE(dy, m.Forward(x), target)
	}
	backward := func() {
		MSE(dy, m.Forward(x), target)
		m.Backward(dy)
	}
	checkGrads(t, m, loss, backward, rng)
}

func TestMHSAMaskedHeadProducesNoGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMHSA("attn", 8, 2, rng)
	m.HeadMask[1] = false
	x := tensor.New(3, 8)
	x.Randomize(rng, 1)
	target := tensor.New(3, 8)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	ZeroGrads(m)
	MSE(dy, m.Forward(x), target)
	m.Backward(dy)

	// Columns of Wq belonging to head 1 must have zero gradient.
	hd := m.HeadDim
	for i := 0; i < m.DModel; i++ {
		for j := hd; j < 2*hd; j++ {
			if g := m.Wq.Grad.At(i, j); g != 0 {
				t.Fatalf("masked head received gradient Wq[%d,%d]=%g", i, j, g)
			}
		}
	}
}

func TestMLPGradientsAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP("mlp", 6, 10, rng)
	m.NeuronMask[3] = false
	x := tensor.New(2, 6)
	x.Randomize(rng, 1)
	target := tensor.New(2, 6)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	loss := func() float64 {
		return MSE(dy, m.Forward(x), target)
	}
	backward := func() {
		MSE(dy, m.Forward(x), target)
		m.Backward(dy)
	}
	checkGrads(t, m, loss, backward, rng)

	// Masked neuron's FC2 row must have zero gradient.
	for j := 0; j < 6; j++ {
		if g := m.FC2.W.Grad.At(3, j); g != 0 {
			t.Fatalf("masked neuron received gradient FC2[3,%d]=%g", 3, g)
		}
	}
}

func TestBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBlock("blk", 8, 2, 12, rng)
	x := tensor.New(3, 8)
	x.Randomize(rng, 1)
	target := tensor.New(3, 8)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	loss := func() float64 {
		return MSE(dy, b.Forward(x), target)
	}
	backward := func() {
		MSE(dy, b.Forward(x), target)
		b.Backward(dy)
	}
	checkGrads(t, b, loss, backward, rng)
}

func TestBackboneClassifierGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bb, err := NewBackbone(BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBackboneClassifier(bb, 5, rng)
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	label := 2

	loss := func() float64 {
		logits, err := c.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		v := CrossEntropy(make([]float64, len(logits)), logits, label)
		return v
	}
	backward := func() {
		logits, err := c.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		dl := make([]float64, len(logits))
		CrossEntropy(dl, logits, label)
		c.Backward(dl)
	}
	checkGrads(t, c, loss, backward, rng)
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewConv1D("conv", 3, 6, rng)
	x := tensor.New(5, 6)
	x.Randomize(rng, 1)
	target := tensor.New(5, 6)
	target.Randomize(rng, 1)
	dy := tensor.New(target.Rows, target.Cols)

	loss := func() float64 {
		return MSE(dy, c.Forward(x), target)
	}
	backward := func() {
		MSE(dy, c.Forward(x), target)
		c.Backward(dy)
	}
	checkGrads(t, c, loss, backward, rng)
}

func TestSeqOpsInputGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ops := map[string]SeqOp{
		"identity":   Identity{},
		"avgpool":    &AvgPool1D{Window: 3},
		"maxpool":    &MaxPool1D{Window: 3},
		"downsample": &Downsample{},
		"layernorm":  NewLayerNorm("lnop", 6, rng),
		"conv5":      NewConv1D("conv5", 5, 6, rng),
	}
	for name, op := range ops {
		x := tensor.New(5, 6)
		x.Randomize(rng, 1)
		target := tensor.New(5, 6)
		target.Randomize(rng, 1)
		dy := tensor.New(target.Rows, target.Cols)
		probe := tensor.New(target.Rows, target.Cols) // the probes' gradients, unread

		ZeroGrads(op)
		MSE(dy, op.Forward(x), target)
		dx := op.Backward(dy)

		const h = 1e-5
		for _, i := range []int{0, 7, 13, 29} {
			orig := x.Data[i]
			x.Data[i] = orig + h
			lp := MSE(probe, op.Forward(x), target)
			x.Data[i] = orig - h
			lm := MSE(probe, op.Forward(x), target)
			x.Data[i] = orig
			// re-run forward at the original point so caches are valid
			op.Forward(x)
			want := (lp - lm) / (2 * h)
			if math.Abs(dx.Data[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s dx[%d]: analytic %.6g numeric %.6g", name, i, dx.Data[i], want)
			}
		}
	}
}
