package nn

import (
	"math/rand"

	"acme/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b applied row-wise to a
// (seq × in) input.
type Linear struct {
	In, Out int
	W       *Param // in × out
	B       *Param // 1 × out

	x *tensor.Matrix // cached input for backward

	// Reused output/gradient buffers. A layer instance runs at most one
	// forward/backward pair at a time, and callers consume each result
	// before the instance's next pass, so the buffers are overwritten
	// only after they are dead.
	y  *tensor.Matrix
	dx *tensor.Matrix
}

// NewLinear returns a Xavier-initialized Linear layer (a received one
// for a nil rng, see Param).
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   newParam(name+".w", in, out, rng),
		B:   newParam(name+".b", 1, out, rng),
	}
	l.W.InitXavier(rng, in, out)
	return l
}

// Forward computes y = x·W + b.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	l.y = tensor.Ensure(l.y, x.Rows, l.Out)
	tensor.MatMulInto(l.y, x, l.W.Value)
	l.y.AddRowVector(l.B.Value.Data)
	return l.y
}

// Backward accumulates dW, dB and returns dx.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulTransAAcc(l.W.Grad, l.x, dy)
	dy.SumRowsInto(l.B.Grad.Data)
	l.dx = tensor.Ensure(l.dx, dy.Rows, l.In)
	tensor.MatMulTransBInto(l.dx, dy, l.W.Value)
	return l.dx
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
