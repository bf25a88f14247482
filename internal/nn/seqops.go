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
// tensor.Ensure idiom of Linear), lent by a Scratch under one: a result
// is valid until the same instance's next Forward or Backward, so
// callers consume it before then.
type SeqOp interface {
	Module
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
}

// ParamBackward is an op that can accumulate the parameter gradients
// Backward would and skip the input gradient, for an input nobody
// differentiates (a frozen backbone's representation): a Conv1D. Of
// the other ops with parameters, an MHSA's, MLP's or LayerNorm's input
// gradient is a small share of its Backward, which runs in its place.
type ParamBackward interface {
	BackwardParams(dy *tensor.Matrix)
}

// Conv1D is a same-padded convolution over the token axis with d input
// and d output channels.
type Conv1D struct {
	Kernel, Dim int
	W           *Param // (kernel*d) × d
	B           *Param // 1 × d

	x    *tensor.Matrix // cached input for a Pass's record
	cols tensor.Matrix  // im2col cache: seq × (kernel*d)

	y, dcols, dx tensor.Matrix // reused scratch, as in Linear
	sc           *Scratch

	rec *rec // set under a Pass: the input and dy are recorded, not accumulated
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
	c.x = x
	cols := c.sc.Ensure(&c.cols, x.Rows, c.Kernel*c.Dim)
	c.im2col(cols, x)
	y := c.sc.Ensure(&c.y, x.Rows, c.Dim)
	tensor.MatMulInto(y, cols, c.W.Value)
	y.AddRowVector(c.B.Value.Data)
	return y
}

// im2col writes the im2col rows of x into cols (x.Rows × kernel·d): row
// t holds input rows t−kernel/2 … t+kernel/2, zero past either end.
func (c *Conv1D) im2col(cols, x *tensor.Matrix) {
	seq, half := x.Rows, c.Kernel/2
	for t := 0; t < seq; t++ {
		dst := cols.Row(t)
		for k := 0; k < c.Kernel; k++ {
			tap := dst[k*c.Dim : (k+1)*c.Dim]
			if src := t + k - half; src >= 0 && src < seq {
				copy(tap, x.Row(src))
			} else {
				clear(tap)
			}
		}
	}
}

// BackwardParams implements ParamBackward: dW and dB only, or under a
// Pass the input and dy recorded for its fold.
func (c *Conv1D) BackwardParams(dy *tensor.Matrix) {
	if c.rec != nil {
		c.rec.put(c.x, dy)
		return
	}
	c.addColGrads(&c.cols, dy)
}

func (c *Conv1D) setRec(r *rec) { c.rec = r }

func (c *Conv1D) folds(jobs []foldJob) []foldJob {
	return append(jobs, foldJob{params: [2]*Param{c.W, c.B}, cost: c.Kernel * c.Dim * c.Dim})
}

// fold adds the gradients of the samples a Pass recorded: their im2col
// rows, rebuilt from the inputs in a borrowed slab, and their dy, in
// one product.
func (c *Conv1D) fold(_ int, r *rec) {
	x, k := &r.ops[0], c.Kernel*c.Dim
	s := borrow(foldChunk * x.rows * k) // one length per kernel size, for the pool's free lists
	for i := range r.n {
		out := tensor.Matrix{Rows: x.rows, Cols: k, Data: s.data[i*x.rows*k : (i+1)*x.rows*k]}
		c.im2col(&out, &tensor.Matrix{Rows: x.rows, Cols: x.cols, Data: x.at(i)})
	}
	c.addColGrads(&tensor.Matrix{Rows: r.n * x.rows, Cols: k, Data: s.data[:r.n*x.rows*k]}, r.op(1))
	giveBack(s)
}

// addColGrads adds dW = colsᵀ·dy and dB = Σ dy rows.
func (c *Conv1D) addColGrads(cols, dy *tensor.Matrix) {
	tensor.MatMulTransAAcc(c.W.Grad, cols, dy)
	dy.SumRowsInto(c.B.Grad.Data)
}

// UseScratch implements ScratchUser.
func (c *Conv1D) UseScratch(s *Scratch) { c.sc, c.x = s, nil }

// Backward accumulates gradients and returns dx.
func (c *Conv1D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	c.BackwardParams(dy)
	seq := dy.Rows
	dcols := c.sc.Ensure(&c.dcols, seq, c.Kernel*c.Dim)
	tensor.MatMulTransBInto(dcols, dy, c.W.Value)
	half := c.Kernel / 2
	dx := c.sc.Zeroed(&c.dx, seq, c.Dim)
	for t := 0; t < seq; t++ {
		row := dcols.Row(t)
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

// Params implements Module.
func (Identity) Params() []*Param { return nil }

// AvgPool1D is a same-padded average pooling over the token axis.
type AvgPool1D struct {
	Window int
	seq    int
	y, dx  tensor.Matrix // reused scratch
	sc     *Scratch
}

var _ SeqOp = (*AvgPool1D)(nil)

// Forward averages each window of rows.
func (p *AvgPool1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	p.seq = x.Rows
	half := p.Window / 2
	y := p.sc.Zeroed(&p.y, x.Rows, x.Cols)
	for t := 0; t < x.Rows; t++ {
		lo, hi := t-half, t+half
		if lo < 0 {
			lo = 0
		}
		if hi >= x.Rows {
			hi = x.Rows - 1
		}
		inv := 1 / float64(hi-lo+1)
		yr := y.Row(t)
		for s := lo; s <= hi; s++ {
			tensor.Axpy(inv, x.Row(s), yr)
		}
	}
	return y
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool1D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	half := p.Window / 2
	dx := p.sc.Zeroed(&p.dx, dy.Rows, dy.Cols)
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

// UseScratch implements ScratchUser.
func (p *AvgPool1D) UseScratch(s *Scratch) { p.sc = s }

// Params implements Module.
func (p *AvgPool1D) Params() []*Param { return nil }

// MaxPool1D is a same-padded max pooling over the token axis.
type MaxPool1D struct {
	Window int
	// argmax maps t*d + j to the source row of output (t, j), a small
	// integer held exactly as a float64 so that it is scratch like y.
	argmax tensor.Matrix
	dim    int
	y, dx  tensor.Matrix // reused scratch
	sc     *Scratch
}

var _ SeqOp = (*MaxPool1D)(nil)

// Forward takes the per-channel max over each window of rows.
func (p *MaxPool1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	half := p.Window / 2
	p.dim = x.Cols
	argmax := p.sc.Ensure(&p.argmax, x.Rows, x.Cols).Data
	y := p.sc.Ensure(&p.y, x.Rows, x.Cols)
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
			argmax[t*x.Cols+j] = float64(bi)
		}
	}
	return y
}

// Backward routes each gradient to its argmax source.
func (p *MaxPool1D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := p.sc.Zeroed(&p.dx, dy.Rows, dy.Cols)
	for t := 0; t < dy.Rows; t++ {
		row := dy.Row(t)
		for j, v := range row {
			src := int(p.argmax.Data[t*p.dim+j])
			dx.Row(src)[j] += v
		}
	}
	return dx
}

// UseScratch implements ScratchUser.
func (p *MaxPool1D) UseScratch(s *Scratch) { p.sc = s }

// Params implements Module.
func (p *MaxPool1D) Params() []*Param { return nil }

// Downsample halves the token resolution with stride-2 averaging, then
// repeats rows back to the original length, giving a coarse, shape-
// preserving downsampling operation.
type Downsample struct {
	y, dx tensor.Matrix // reused scratch
	sc    *Scratch
}

var _ SeqOp = (*Downsample)(nil)

// Forward averages row pairs and duplicates them back out.
func (d *Downsample) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := d.sc.Ensure(&d.y, x.Rows, x.Cols) // every row is written below
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
	dx := d.sc.Zeroed(&d.dx, dy.Rows, dy.Cols)
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

// UseScratch implements ScratchUser.
func (d *Downsample) UseScratch(s *Scratch) { d.sc = s }

// Params implements Module.
func (d *Downsample) Params() []*Param { return nil }
