package nn

import (
	"math"
	"math/rand"

	"acme/internal/tensor"
)

// SeqOp is a shape-preserving operation over a token sequence
// (seq × d) → (seq × d). These are the candidate operations of the NAS
// header search space; keeping them shape-preserving means any two block
// outputs can always be combined by element-wise addition (the paper
// constrains the combiner to addition and inserts 1×1 convolutions for
// mismatches — shape-preserving ops make that insertion implicit).
//
// Outputs and input gradients are per-instance scratch buffers (the
// tensor.Ensure idiom of Linear): a result is valid until the same
// instance's next Forward or Backward, so callers consume it before
// then.
type SeqOp interface {
	Module
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// BackwardParams accumulates the parameter gradients Backward would
	// and skips the input gradient — for an op whose input nobody
	// differentiates (a frozen backbone's representation).
	BackwardParams(dy *tensor.Matrix)
}

// Conv1D is a same-padded convolution over the token axis with d input
// and d output channels.
type Conv1D struct {
	Kernel, Dim int
	W           *Param // (kernel*d) × d
	B           *Param // 1 × d

	cols *tensor.Matrix // im2col cache: seq × (kernel*d)

	y, dcols, dx *tensor.Matrix // reused scratch, as in Linear
}

var _ SeqOp = (*Conv1D)(nil)

// NewConv1D returns a Xavier-initialized convolution with the given odd
// kernel size.
func NewConv1D(name string, kernel, dim int, rng *rand.Rand) *Conv1D {
	c := &Conv1D{
		Kernel: kernel,
		Dim:    dim,
		W:      newParam(name+".w", kernel*dim, dim, rng),
		B:      newParam(name+".b", 1, dim, rng),
	}
	c.W.InitXavier(rng, kernel*dim, dim)
	return c
}

// Forward applies the convolution with zero padding.
func (c *Conv1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	seq := x.Rows
	half := c.Kernel / 2
	// The zero padding needs no clearing on reuse: for a given seq the
	// same cells are padding every time, and nothing else writes cols.
	c.cols = tensor.Ensure(c.cols, seq, c.Kernel*c.Dim)
	for t := 0; t < seq; t++ {
		dst := c.cols.Row(t)
		for k := 0; k < c.Kernel; k++ {
			src := t + k - half
			if src < 0 || src >= seq {
				continue
			}
			copy(dst[k*c.Dim:(k+1)*c.Dim], x.Row(src))
		}
	}
	c.y = tensor.Ensure(c.y, seq, c.Dim)
	tensor.MatMulInto(c.y, c.cols, c.W.Value)
	c.y.AddRowVector(c.B.Value.Data)
	return c.y
}

// BackwardParams implements SeqOp: dW and dB only.
func (c *Conv1D) BackwardParams(dy *tensor.Matrix) {
	tensor.MatMulTransAAcc(c.W.Grad, c.cols, dy)
	dy.SumRowsInto(c.B.Grad.Data)
}

// Backward accumulates gradients and returns dx.
func (c *Conv1D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	c.BackwardParams(dy)
	seq := dy.Rows
	c.dcols = tensor.Ensure(c.dcols, seq, c.Kernel*c.Dim)
	tensor.MatMulTransBInto(c.dcols, dy, c.W.Value)
	half := c.Kernel / 2
	c.dx = zeroed(c.dx, seq, c.Dim)
	dx := c.dx
	for t := 0; t < seq; t++ {
		row := c.dcols.Row(t)
		for k := 0; k < c.Kernel; k++ {
			src := t + k - half
			if src < 0 || src >= seq {
				continue
			}
			tensor.Axpy(1, row[k*c.Dim:(k+1)*c.Dim], dx.Row(src))
		}
	}
	return dx
}

// Params implements Module.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// Identity passes its input through unchanged.
type Identity struct{}

var _ SeqOp = (*Identity)(nil)

// Forward returns x.
func (Identity) Forward(x *tensor.Matrix) *tensor.Matrix { return x }

// Backward returns dy.
func (Identity) Backward(dy *tensor.Matrix) *tensor.Matrix { return dy }

// BackwardParams implements SeqOp.
func (Identity) BackwardParams(*tensor.Matrix) {}

// Params implements Module.
func (Identity) Params() []*Param { return nil }

// AvgPool1D is a same-padded average pooling over the token axis.
type AvgPool1D struct {
	Window int
	seq    int
	y, dx  *tensor.Matrix // reused scratch
}

var _ SeqOp = (*AvgPool1D)(nil)

// Forward averages each window of rows.
func (p *AvgPool1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	p.seq = x.Rows
	half := p.Window / 2
	p.y = zeroed(p.y, x.Rows, x.Cols)
	for t := 0; t < x.Rows; t++ {
		lo, hi := t-half, t+half
		if lo < 0 {
			lo = 0
		}
		if hi >= x.Rows {
			hi = x.Rows - 1
		}
		inv := 1 / float64(hi-lo+1)
		yr := p.y.Row(t)
		for s := lo; s <= hi; s++ {
			tensor.Axpy(inv, x.Row(s), yr)
		}
	}
	return p.y
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool1D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	half := p.Window / 2
	p.dx = zeroed(p.dx, dy.Rows, dy.Cols)
	dx := p.dx
	for t := 0; t < dy.Rows; t++ {
		lo, hi := t-half, t+half
		if lo < 0 {
			lo = 0
		}
		if hi >= p.seq {
			hi = p.seq - 1
		}
		inv := 1 / float64(hi-lo+1)
		row := dy.Row(t)
		for s := lo; s <= hi; s++ {
			tensor.Axpy(inv, row, dx.Row(s))
		}
	}
	return dx
}

// BackwardParams implements SeqOp.
func (p *AvgPool1D) BackwardParams(*tensor.Matrix) {}

// Params implements Module.
func (p *AvgPool1D) Params() []*Param { return nil }

// MaxPool1D is a same-padded max pooling over the token axis.
type MaxPool1D struct {
	Window int
	argmax []int // flattened (t*d + j) -> source row
	dim    int
	y, dx  *tensor.Matrix // reused scratch
}

var _ SeqOp = (*MaxPool1D)(nil)

// Forward takes the per-channel max over each window of rows.
func (p *MaxPool1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	half := p.Window / 2
	p.dim = x.Cols
	if len(p.argmax) != x.Rows*x.Cols {
		p.argmax = make([]int, x.Rows*x.Cols)
	}
	p.y = tensor.Ensure(p.y, x.Rows, x.Cols)
	y := p.y
	for t := 0; t < x.Rows; t++ {
		lo, hi := t-half, t+half
		if lo < 0 {
			lo = 0
		}
		if hi >= x.Rows {
			hi = x.Rows - 1
		}
		yr := y.Row(t)
		for j := 0; j < x.Cols; j++ {
			best, bi := math.Inf(-1), lo
			for s := lo; s <= hi; s++ {
				if v := x.At(s, j); v > best {
					best, bi = v, s
				}
			}
			yr[j] = best
			p.argmax[t*x.Cols+j] = bi
		}
	}
	return y
}

// Backward routes each gradient to its argmax source.
func (p *MaxPool1D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	p.dx = zeroed(p.dx, dy.Rows, dy.Cols)
	dx := p.dx
	for t := 0; t < dy.Rows; t++ {
		row := dy.Row(t)
		for j, v := range row {
			src := p.argmax[t*p.dim+j]
			dx.Row(src)[j] += v
		}
	}
	return dx
}

// BackwardParams implements SeqOp.
func (p *MaxPool1D) BackwardParams(*tensor.Matrix) {}

// Params implements Module.
func (p *MaxPool1D) Params() []*Param { return nil }

// Downsample halves the token resolution with stride-2 averaging, then
// repeats rows back to the original length, giving a coarse, shape-
// preserving downsampling operation.
type Downsample struct {
	y, dx *tensor.Matrix // reused scratch
}

var _ SeqOp = (*Downsample)(nil)

// Forward averages row pairs and duplicates them back out.
func (d *Downsample) Forward(x *tensor.Matrix) *tensor.Matrix {
	d.y = tensor.Ensure(d.y, x.Rows, x.Cols) // every row is written below
	y := d.y
	for t := 0; t < x.Rows; t += 2 {
		hi := t + 1
		if hi >= x.Rows {
			hi = x.Rows - 1
		}
		yr := y.Row(t)
		for j := 0; j < x.Cols; j++ {
			yr[j] = 0.5 * (x.At(t, j) + x.At(hi, j))
		}
		if hi != t {
			copy(y.Row(hi), yr)
		}
	}
	return y
}

// Backward distributes gradients back through the average+repeat.
func (d *Downsample) Backward(dy *tensor.Matrix) *tensor.Matrix {
	d.dx = zeroed(d.dx, dy.Rows, dy.Cols)
	dx := d.dx
	for t := 0; t < dy.Rows; t += 2 {
		hi := t + 1
		if hi >= dy.Rows {
			hi = dy.Rows - 1
		}
		for j := 0; j < dy.Cols; j++ {
			g := dy.At(t, j)
			if hi != t {
				g += dy.At(hi, j)
				dx.Row(t)[j] += 0.5 * g
				dx.Row(hi)[j] += 0.5 * g
			} else {
				// The last row paired with itself: y = 0.5·(x+x) = x.
				dx.Row(t)[j] += g
			}
		}
	}
	return dx
}

// BackwardParams implements SeqOp.
func (d *Downsample) BackwardParams(*tensor.Matrix) {}

// Params implements Module.
func (d *Downsample) Params() []*Param { return nil }

// LayerNormOp adapts LayerNorm to the SeqOp interface.
type LayerNormOp struct {
	LN *LayerNorm
}

var _ SeqOp = (*LayerNormOp)(nil)

// NewLayerNormOp returns a LayerNorm sequence operation.
func NewLayerNormOp(name string, dim int, rng *rand.Rand) *LayerNormOp {
	return &LayerNormOp{LN: NewLayerNorm(name, dim, rng)}
}

// Forward implements SeqOp.
func (o *LayerNormOp) Forward(x *tensor.Matrix) *tensor.Matrix { return o.LN.Forward(x) }

// Backward implements SeqOp.
func (o *LayerNormOp) Backward(dy *tensor.Matrix) *tensor.Matrix { return o.LN.Backward(dy) }

// BackwardParams implements SeqOp. LayerNorm computes its gain/bias
// gradients and dx in one sweep, so the full Backward runs.
func (o *LayerNormOp) BackwardParams(dy *tensor.Matrix) { o.LN.Backward(dy) }

// Params implements Module.
func (o *LayerNormOp) Params() []*Param { return o.LN.Params() }

// zeroed is tensor.Ensure followed by Zero: a scratch buffer that the
// caller accumulates into.
func zeroed(m *tensor.Matrix, r, c int) *tensor.Matrix {
	m = tensor.Ensure(m, r, c)
	m.Zero()
	return m
}
