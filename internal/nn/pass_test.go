package nn

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/tensor"
)

// stackNet is a classifier at a device header's shapes for the Pass
// oracle: convolutions of kernel 1, 3 and 5 in a chain over a 9 × 32
// sequence, each with masked output channels, then the mean over tokens
// beside token 0 (64 values) through FC1 (64 → 32, GELU, masked hidden
// neurons) and FC2 (32 → 100). The first convolution's input is the
// sample, so it takes BackwardParams, as a header op fed by the backbone
// does.
type stackNet struct {
	convs  []*Conv1D
	off    [][]int // masked output channels per convolution
	fc1    *Linear
	fc2    *Linear
	act    GELU
	hidOff []int

	x      tensor.Matrix
	pooled *tensor.Matrix
	dl     tensor.Matrix
	dh     *tensor.Matrix
}

const stackSeq, stackDim = 9, 32

func newStackNet(rng *rand.Rand) *stackNet {
	n := &stackNet{
		fc1:    NewLinear("fc1", 2*stackDim, 32, rng),
		fc2:    NewLinear("fc2", 32, 100, rng),
		off:    [][]int{{0, 7}, {3}, {1, 30, 31}},
		hidOff: []int{2, 5, 31},
		pooled: tensor.New(1, 2*stackDim),
	}
	for _, k := range []int{1, 3, 5} {
		n.convs = append(n.convs, NewConv1D("conv", k, stackDim, rng))
	}
	return n
}

func (n *stackNet) StackedLayers() []Stackable {
	return []Stackable{n.convs[0], n.convs[1], n.convs[2], n.fc1, n.fc2}
}

func (n *stackNet) Params() []*Param {
	var ps []*Param
	for _, c := range n.convs {
		ps = append(ps, c.Params()...)
	}
	return append(append(ps, n.fc1.Params()...), n.fc2.Params()...)
}

func (n *stackNet) Forward(x []float64) ([]float64, error) {
	n.x = tensor.Matrix{Rows: stackSeq, Cols: stackDim, Data: x}
	h := &n.x
	for i, c := range n.convs {
		h = c.Forward(h)
		zeroColumns(h, n.off[i])
	}
	mean := n.pooled.Data[:stackDim]
	clear(mean)
	h.SumRowsInto(mean)
	for j := range mean {
		mean[j] /= stackSeq
	}
	copy(n.pooled.Data[stackDim:], n.x.Row(0))
	hid := n.act.Forward(n.fc1.Forward(n.pooled))
	for _, j := range n.hidOff {
		hid.Data[j] = 0
	}
	return n.fc2.Forward(hid).Row(0), nil
}

func (n *stackNet) Backward(dlogits []float64) {
	n.dl = tensor.Matrix{Rows: 1, Cols: len(dlogits), Data: dlogits}
	dHid := n.fc2.Backward(&n.dl)
	for _, j := range n.hidOff {
		dHid.Data[j] = 0
	}
	dPooled := n.fc1.Backward(n.act.Backward(dHid))
	n.dh = tensor.Ensure(n.dh, stackSeq, stackDim)
	for t := 0; t < stackSeq; t++ {
		for j := range stackDim {
			n.dh.Row(t)[j] = dPooled.Data[j] / stackSeq
		}
	}
	dy := n.dh
	for i := len(n.convs) - 1; i >= 0; i-- {
		zeroColumns(dy, n.off[i])
		if i == 0 {
			n.convs[0].BackwardParams(dy)
			break
		}
		dy = n.convs[i].Backward(dy)
	}
}

func zeroColumns(m *tensor.Matrix, cols []int) {
	for t := 0; t < m.Rows; t++ {
		for _, j := range cols {
			m.Row(t)[j] = 0
		}
	}
}

// TestPassFoldsBitIdentically: a Pass over stackNet leaves every weight
// and bias gradient bit-equal to one Backward per sample, for
// minibatches whose fold boundaries (every 4 samples) fall inside them
// and at their ends, accumulated across Runs, with zero and -0 entries
// in the samples. The race build runs it on the pure-Go kernels.
func TestPassFoldsBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 12)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, stackSeq*stackDim)
		for j := range xs[i] {
			switch v := rng.NormFloat64(); {
			case j%11 == 0:
				xs[i][j] = 0
			case j%13 == 0:
				xs[i][j] = math.Copysign(0, -1)
			default:
				xs[i][j] = v
			}
		}
		ys[i] = rng.Intn(100)
	}
	stacked, serial := newStackNet(rand.New(rand.NewSource(2))), newStackNet(rand.New(rand.NewSource(2)))
	ZeroGrads(stacked)
	ZeroGrads(serial)
	pass := NewPass(stacked)
	defer pass.Release() // after a failure; the Release below is the one checked
	for _, mb := range [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10, 11, 0, 1, 2, 3, 4, 5, 6}} {
		if err := pass.Run(xs, ys, mb, float64(len(mb))); err != nil {
			t.Fatal(err)
		}
		for _, i := range mb {
			logits, _ := serial.Forward(xs[i])
			dl := make([]float64, len(logits))
			CrossEntropy(dl, logits, ys[i])
			for j := range dl {
				dl[j] /= float64(len(mb))
			}
			serial.Backward(dl)
		}
		got, want := stacked.Params(), serial.Params()
		for p := range got {
			for i, g := range got[p].Grad.Data {
				if math.Float64bits(g) != math.Float64bits(want[p].Grad.Data[i]) {
					t.Fatalf("after minibatch %v: param %d (%s) grad[%d] = %v, per sample %v", mb, p, got[p].Name, i, g, want[p].Grad.Data[i])
				}
			}
		}
	}
	pass.Release()
	if n := Lent(); n != 0 {
		t.Errorf("%d scratch slabs lent after Release", n)
	}
	for _, l := range stacked.StackedLayers() {
		var on bool
		switch l := l.(type) {
		case *Conv1D:
			on = l.rec != nil
		case *Linear:
			on = l.rec != nil
		}
		if on {
			t.Errorf("%T still records after Release", l)
		}
	}
}

// TestBorrowAdamMatchesNewAdam: moments borrowed from the pool, which
// hold another call's values until zeroed, step the same bits as owned
// ones, and Release leaves a fresh optimizer.
func TestBorrowAdamMatchesNewAdam(t *testing.T) {
	params := func() []*Param {
		p := NewParam("w", 3, 5)
		p.Value.Randomize(rand.New(rand.NewSource(1)), 1)
		return []*Param{p}
	}
	dirty := BorrowAdam(1e-2)
	dirtyParams := params()
	dirtyParams[0].Grad.Randomize(rand.New(rand.NewSource(9)), 1)
	dirty.Step(dirtyParams)
	dirty.Release() // its slab, now nonzero, goes back to the pool

	owned, borrowed := NewAdam(1e-2), BorrowAdam(1e-2)
	a, b := params(), params()
	for step := range 3 {
		g := rand.New(rand.NewSource(int64(step)))
		a[0].Grad.Randomize(g, 1)
		copy(b[0].Grad.Data, a[0].Grad.Data)
		owned.Step(a)
		borrowed.Step(b)
	}
	for i := range a[0].Value.Data {
		if math.Float64bits(a[0].Value.Data[i]) != math.Float64bits(b[0].Value.Data[i]) {
			t.Fatalf("value %d: owned %v, borrowed %v", i, a[0].Value.Data[i], b[0].Value.Data[i])
		}
	}
	borrowed.Release()
	if n := Lent(); n != 0 {
		t.Errorf("%d scratch slabs lent after Release", n)
	}
	if borrowed.t != 0 || len(borrowed.state) != 0 {
		t.Errorf("released Adam at step %d with %d moments, want a fresh one", borrowed.t, len(borrowed.state))
	}
}

// TestLeaseCutsAndGivesBack: a Lease cuts disjoint rows of both float
// types, a row longer than a chunk included, and Release gives every
// slab back, so the next round's rows are the same storage; a nil
// Lease allocates.
func TestLeaseCutsAndGivesBack(t *testing.T) {
	sizes := []int{10, leaseChunk + 1, 300, leaseChunk, 7}
	var l Lease
	round := func() (f64 [][]float64, f32 [][]float32) {
		for i, n := range sizes {
			a, b := l.F64s(n), l.F32s(n)
			if len(a) != n || cap(a) != n || len(b) != n || cap(b) != n {
				t.Fatalf("row %d: lengths %d/%d, capacities %d/%d, want %d", i, len(a), len(b), cap(a), cap(b), n)
			}
			for j := range a {
				a[j], b[j] = float64(i), float32(i)
			}
			f64, f32 = append(f64, a), append(f32, b)
		}
		for i := range f64 {
			for j := range f64[i] {
				if f64[i][j] != float64(i) || f32[i][j] != float32(i) {
					t.Fatalf("row %d overlaps another", i)
				}
			}
		}
		return f64, f32
	}
	first, _ := round()
	if Lent() == 0 {
		t.Fatal("a lease borrowed nothing")
	}
	l.Release()
	if n := Lent(); n != 0 {
		t.Fatalf("%d slabs lent after Release", n)
	}
	second, _ := round()
	if &first[1][0] != &second[1][0] {
		t.Error("the second round did not reuse the storage the first gave back")
	}
	l.Release()
	l.Release()
	if n := Lent(); n != 0 {
		t.Fatalf("%d slabs lent after a second Release", n)
	}
	var none *Lease
	if a, b := none.F64s(3), none.F32s(4); len(a) != 3 || len(b) != 4 || Lent() != 0 {
		t.Fatal("a nil Lease does not allocate plain rows")
	}
}
