package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"acme/internal/tensor"
)

// quadratic builds a single-parameter module with loss (x-3)².
type quadratic struct {
	p *Param
}

func (q *quadratic) Params() []*Param { return []*Param{q.p} }

func (q *quadratic) lossAndGrad() float64 {
	x := q.p.Value.Data[0]
	q.p.Grad.Data[0] = 2 * (x - 3)
	return (x - 3) * (x - 3)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	q := &quadratic{p: NewParam("x", 1, 1)}
	opt := NewSGD(0.1, 0)
	for i := 0; i < 200; i++ {
		q.lossAndGrad()
		opt.Step(q.Params())
	}
	if got := q.p.Value.Data[0]; math.Abs(got-3) > 1e-3 {
		t.Fatalf("SGD converged to %v, want 3", got)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	q := &quadratic{p: NewParam("x", 1, 1)}
	opt := NewSGD(0.05, 0.9)
	for i := 0; i < 300; i++ {
		q.lossAndGrad()
		opt.Step(q.Params())
	}
	if got := q.p.Value.Data[0]; math.Abs(got-3) > 1e-2 {
		t.Fatalf("momentum SGD converged to %v, want 3", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	q := &quadratic{p: NewParam("x", 1, 1)}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		q.lossAndGrad()
		opt.Step(q.Params())
	}
	if got := q.p.Value.Data[0]; math.Abs(got-3) > 1e-2 {
		t.Fatalf("Adam converged to %v, want 3", got)
	}
}

func TestOptimizerZeroesGradients(t *testing.T) {
	q := &quadratic{p: NewParam("x", 1, 1)}
	q.lossAndGrad()
	NewAdam(0.1).Step(q.Params())
	if q.p.Grad.Data[0] != 0 {
		t.Fatal("Adam.Step must zero gradients")
	}
	q.lossAndGrad()
	NewSGD(0.1, 0.5).Step(q.Params())
	if q.p.Grad.Data[0] != 0 {
		t.Fatal("SGD.Step must zero gradients")
	}
}

func TestGradientClipping(t *testing.T) {
	g := []float64{3, 4} // norm 5
	clipNorm(g, 1)
	var norm float64
	for _, v := range g {
		norm += v * v
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Fatalf("clipped norm %v", math.Sqrt(norm))
	}
	h := []float64{0.3, 0.4}
	clipNorm(h, 1)
	if h[0] != 0.3 || h[1] != 0.4 {
		t.Fatal("small gradient should be untouched")
	}
}

func TestCosineLRShape(t *testing.T) {
	s := CosineLR{Max: 1, Min: 0.1, WarmupSteps: 10, TotalSteps: 110}
	if got := s.LR(0); got >= s.LR(9) {
		t.Fatal("warmup must be increasing")
	}
	if math.Abs(s.LR(10)-1) > 1e-9 {
		t.Fatalf("post-warmup LR %v want 1", s.LR(10))
	}
	if got := s.LR(1000); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("final LR %v want 0.1", got)
	}
	mid := s.LR(60)
	if mid >= 1 || mid <= 0.1 {
		t.Fatalf("midpoint LR %v outside (0.1, 1)", mid)
	}
	// Monotone decreasing after warmup.
	prev := s.LR(10)
	for step := 11; step <= 110; step += 7 {
		cur := s.LR(step)
		if cur > prev+1e-12 {
			t.Fatalf("cosine LR increased at step %d", step)
		}
		prev = cur
	}
}

func TestStepLR(t *testing.T) {
	s := StepLR{Base: 1, Gamma: 0.5, StepSize: 10}
	if s.LR(0) != 1 || s.LR(9) != 1 {
		t.Fatal("first window must use the base rate")
	}
	if s.LR(10) != 0.5 || s.LR(25) != 0.25 {
		t.Fatalf("decay wrong: %v %v", s.LR(10), s.LR(25))
	}
}

func TestScheduledOptimizerConverges(t *testing.T) {
	q := &quadratic{p: NewParam("x", 1, 1)}
	opt := NewScheduledAdam(CosineLR{Max: 0.2, Min: 0.001, TotalSteps: 400})
	for i := 0; i < 400; i++ {
		q.lossAndGrad()
		opt.Step(q.Params())
	}
	if got := q.p.Value.Data[0]; math.Abs(got-3) > 1e-2 {
		t.Fatalf("scheduled Adam converged to %v", got)
	}
	if opt.CurrentStep() != 400 {
		t.Fatalf("step counter %d", opt.CurrentStep())
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(0.5, rng)
	x := tensor.New(10, 10)
	x.Fill(1)

	y := d.Forward(x)
	var zeros, doubled int
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			doubled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros == 0 || doubled == 0 {
		t.Fatal("dropout mask degenerate")
	}
	// Backward must route through the same mask with the same scaling.
	dy := tensor.New(10, 10)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i, v := range y.Data {
		if (v == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}

	d.Train = false
	y2 := d.Forward(x)
	for _, v := range y2.Data {
		if v != 1 {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bb, err := NewBackbone(BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/bb.ckpt"
	if err := SaveCheckpoint(path, bb); err != nil {
		t.Fatal(err)
	}
	// Build a second backbone with different weights, restore, compare.
	bb2, err := NewBackbone(bb.Cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadCheckpoint(path, bb2); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a, err := bb.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bb2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(a, b, 1e-12) {
		t.Fatal("restored backbone diverges")
	}
}

func TestCheckpointRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewLinear("l", 4, 3, rng)
	cp := Snapshot(a)
	b := NewLinear("l", 4, 5, rng)
	if err := Restore(b, cp); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	c := NewLinear("other", 4, 3, rng)
	if err := Restore(c, cp); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

// TestTrainingLearnsSeparableData exercises the full training loop: a
// tiny backbone classifier must fit well-separated Gaussian classes.
func TestTrainingLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bb, err := NewBackbone(BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBackboneClassifier(bb, 3, rng)

	// Three well-separated classes.
	var xs [][]float64
	var ys []int
	for i := 0; i < 150; i++ {
		class := i % 3
		x := make([]float64, 16)
		for j := range x {
			x[j] = float64(class)*4 + 0.3*rng.NormFloat64()
		}
		xs = append(xs, x)
		ys = append(ys, class)
	}
	opt := NewAdam(2e-3)
	for e := 0; e < 10; e++ {
		if _, err := TrainEpoch(c, opt, xs, ys, 16, rng); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := Evaluate(c, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("failed to fit separable data: accuracy %.3f", acc)
	}
}

// TestTrainEpochPinned pins one whole cloud-side epoch: Linear, MHSA and
// MLP forward and backward over many samples, the classifier head, and
// the Adam updates that compound any last-bit difference. The constant
// is the FNV-1a hash of every parameter bit as computed on amd64 at
// commit 57724c9, before the register-blocked kernels replaced the
// one-step-per-sweep loops in internal/tensor; a reordered reduction in
// any kernel changes it. The widths are deliberately not multiples of 4.
func TestTrainEpochPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bb, err := NewBackbone(BackboneConfig{
		InputDim: 30, NumPatches: 5, DModel: 15, NumHeads: 3, Hidden: 22, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBackboneClassifier(bb, 5, rng)
	xs := make([][]float64, 37)
	ys := make([]int, len(xs))
	for i := range xs {
		ys[i] = i % 5
		xs[i] = make([]float64, 30)
		for j := range xs[i] {
			xs[i][j] = float64(ys[i]) + rng.NormFloat64()
		}
	}
	if _, err := TrainEpoch(c, NewAdam(2e-3), xs, ys, 8, rng); err != nil {
		t.Fatal(err)
	}
	hash := fnv.New64a()
	var buf [8]byte
	for _, p := range c.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			hash.Write(buf[:])
		}
	}
	const want uint64 = 0x0b9015c9bfabb416
	if got := hash.Sum64(); got != want {
		t.Fatalf("parameter hash %#x, want %#x", got, want)
	}
}
