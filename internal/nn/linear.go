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
	// only after they are dead. Under a Scratch (sc) they are the call's.
	y, dx tensor.Matrix
	sc    *Scratch

	rec *rec // set on a replica's copy (see team) or under a Pass: x and dy are recorded, not accumulated
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
	y := l.sc.Ensure(&l.y, x.Rows, l.Out)
	tensor.MatMulInto(y, x, l.W.Value)
	y.AddRowVector(l.B.Value.Data)
	return y
}

// Backward accumulates dW, dB and returns dx.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.accumulate(dy)
	dx := l.sc.Ensure(&l.dx, dy.Rows, l.In)
	tensor.MatMulTransBInto(dx, dy, l.W.Value)
	return dx
}

// accumulate is Backward without dx: it adds dW and dB for the cached
// input, or on a replica records the input and dy for the fold.
func (l *Linear) accumulate(dy *tensor.Matrix) {
	if l.rec != nil {
		l.rec.put(l.x, dy)
		return
	}
	l.addGrads(l.x, dy)
}

// addGrads adds dW = xᵀ·dy and dB = Σ dy rows.
func (l *Linear) addGrads(x, dy *tensor.Matrix) {
	tensor.MatMulTransAAcc(l.W.Grad, x, dy)
	dy.SumRowsInto(l.B.Grad.Data)
}

func (l *Linear) setRec(r *rec) { l.rec = r }

// UseScratch implements ScratchUser.
func (l *Linear) UseScratch(s *Scratch) { l.sc, l.x = s, nil }

// foldRec adds the gradients of the samples a Pass recorded, stacked.
func (l *Linear) foldRec(r *rec) { l.addGrads(r.ops[0].view(r.n), r.ops[1].view(r.n)) }

// replica returns a copy of l over the same parameters that records
// into r.
func (l *Linear) replica(r *rec) *Linear {
	return &Linear{In: l.In, Out: l.Out, W: l.W, B: l.B, rec: r}
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
