package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
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
	c, xs, ys, rng := pinnedEpochFixture(t)
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

// pinnedEpochFixture is TestTrainEpochPinned's model and data, and the
// rng that shuffles its epoch: widths that are not multiples of 4, and 37
// samples, so a batch of 8 leaves a partial last minibatch.
func pinnedEpochFixture(t *testing.T) (*BackboneClassifier, [][]float64, []int, *rand.Rand) {
	t.Helper()
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
	return c, xs, ys, rng
}
