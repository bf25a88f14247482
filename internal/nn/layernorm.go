package nn

import (
	"math"
	"math/rand"

	"acme/internal/tensor"
)

const lnEps = 1e-5

// LayerNorm normalizes each row of a (seq × d) input to zero mean and
// unit variance, then applies a learned per-feature gain and bias.
type LayerNorm struct {
	Dim   int
	Gain  *Param // 1 × d
	Bias  *Param // 1 × d
	xhat  *tensor.Matrix
	invSD []float64

	// Reused output buffers; overwritten on the next pass, after
	// callers have consumed them.
	y, dx *tensor.Matrix
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
	ln.xhat = tensor.Ensure(ln.xhat, x.Rows, x.Cols)
	if len(ln.invSD) != x.Rows {
		ln.invSD = make([]float64, x.Rows)
	}
	ln.y = tensor.Ensure(ln.y, x.Rows, x.Cols)
	y := ln.y
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
		ln.invSD[i] = inv
		xh := ln.xhat.Row(i)
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
	ln.dx = tensor.Ensure(ln.dx, dy.Rows, dy.Cols)
	dx := ln.dx
	g := ln.Gain.Value.Data
	dg := ln.Gain.Grad.Data
	db := ln.Bias.Grad.Data
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
			dg[j] += dyr[j] * xh[j]
			db[j] += dyr[j]
		}
		mDxh /= n
		mDxhXh /= n
		inv := ln.invSD[i]
		dxr := dx.Row(i)
		for j := range dyr {
			dxh := dyr[j] * g[j]
			dxr[j] = inv * (dxh - mDxh - xh[j]*mDxhXh)
		}
	}
	return dx
}

// Params implements Module.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Bias} }
