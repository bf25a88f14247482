package nn

import (
	"math"
	"math/rand"

	"acme/internal/tensor"
)

const lnEps = 1e-5

// LayerNorm normalizes each row of a (seq × d) input to zero mean and
// unit variance, then applies a learned per-feature gain and bias. It is
// a SeqOp too, a candidate operation of the header search space.
type LayerNorm struct {
	Dim   int
	Gain  *Param // 1 × d
	Bias  *Param // 1 × d
	xhat  tensor.Matrix
	invSD tensor.Matrix // 1 × rows

	// Reused output buffers (a Scratch's, under one); overwritten on the
	// next pass, after callers have consumed them.
	y, dx tensor.Matrix
	sc    *Scratch

	rec *rec // set under a Pass: x̂ and dy are recorded, not accumulated
}

// NewLayerNorm returns a LayerNorm with gain 1 and bias 0.
func NewLayerNorm(name string, dim int, rng *rand.Rand) *LayerNorm {
	ln := &LayerNorm{
		Dim:  dim,
		Gain: newParam(name+".gain", 1, dim, rng),
		Bias: newParam(name+".bias", 1, dim, rng),
	}
	ln.Gain.Value.Fill(1)
	return ln
}

// Forward normalizes each row and applies gain/bias.
func (ln *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	xhat := ln.sc.Ensure(&ln.xhat, x.Rows, x.Cols)
	invSD := ln.sc.Ensure(&ln.invSD, 1, x.Rows).Data
	y := ln.sc.Ensure(&ln.y, x.Rows, x.Cols)
	g := ln.Gain.Value.Data
	b := ln.Bias.Value.Data
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varsum float64
		for _, v := range row {
			d := v - mean
			varsum += d * d
		}
		inv := 1 / math.Sqrt(varsum/float64(len(row))+lnEps)
		invSD[i] = inv
		xh := xhat.Row(i)
		yr := y.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			yr[j] = xh[j]*g[j] + b[j]
		}
	}
	return y
}

// Backward accumulates gain/bias gradients and returns dx.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if ln.rec != nil {
		ln.rec.put(&ln.xhat, dy)
	} else {
		ln.addGrads(&ln.xhat, dy)
	}
	dx := ln.sc.Ensure(&ln.dx, dy.Rows, dy.Cols)
	g := ln.Gain.Value.Data
	n := float64(dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := ln.xhat.Row(i)
		// dxhat = dy ∘ gain; dx = invSD*(dxhat - mean(dxhat) - xhat*mean(dxhat∘xhat))
		var mDxh, mDxhXh float64
		for j := range dyr {
			dxh := dyr[j] * g[j]
			mDxh += dxh
			mDxhXh += dxh * xh[j]
		}
		mDxh /= n
		mDxhXh /= n
		inv := ln.invSD.Data[i]
		dxr := dx.Row(i)
		for j := range dyr {
			dxh := dyr[j] * g[j]
			dxr[j] = inv * (dxh - mDxh - xh[j]*mDxhXh)
		}
	}
	return dx
}

// addGrads adds the gain gradient Σ dy∘x̂ and the bias gradient Σ dy,
// row by row.
func (ln *LayerNorm) addGrads(xhat, dy *tensor.Matrix) {
	dg := ln.Gain.Grad.Data
	db := ln.Bias.Grad.Data
	for i := 0; i < dy.Rows; i++ {
		xh := xhat.Row(i)
		for j, v := range dy.Row(i) {
			dg[j] += v * xh[j]
			db[j] += v
		}
	}
}

func (ln *LayerNorm) setRec(r *rec) { ln.rec = r }

func (ln *LayerNorm) folds(jobs []foldJob) []foldJob {
	return append(jobs, foldJob{params: [2]*Param{ln.Gain, ln.Bias}, cost: 2 * ln.Dim})
}

func (ln *LayerNorm) fold(_ int, r *rec) { ln.addGrads(r.op(0), r.op(1)) }

// Params implements Module.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Bias} }
