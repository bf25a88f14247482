package nn

import (
	"math"

	"acme/internal/tensor"
)

// GELU is the Gaussian Error Linear Unit activation, applied element-wise.
type GELU struct {
	x *tensor.Matrix

	// Reused output buffers; overwritten on the next pass, after
	// callers have consumed them. cdf keeps Forward's Φ(x) for Backward,
	// which would otherwise evaluate erf a second time on the same x.
	y, dx, cdf *tensor.Matrix
}

// Forward computes y = x·Φ(x) with the exact Gaussian CDF.
func (g *GELU) Forward(x *tensor.Matrix) *tensor.Matrix {
	g.x = x
	g.y = tensor.Ensure(g.y, x.Rows, x.Cols)
	g.cdf = tensor.Ensure(g.cdf, x.Rows, x.Cols)
	for i, v := range x.Data {
		c := gaussCDF(v)
		g.cdf.Data[i] = c
		g.y.Data[i] = v * c
	}
	return g.y
}

// Backward returns dx = dy ∘ gelu'(x), gelu'(x) = Φ(x) + x·φ(x).
func (g *GELU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	g.dx = tensor.Ensure(g.dx, dy.Rows, dy.Cols)
	for i, v := range g.x.Data {
		g.dx.Data[i] = dy.Data[i] * (g.cdf.Data[i] + v*gaussPDF(v))
	}
	return g.dx
}

// Params implements Module.
func (g *GELU) Params() []*Param { return nil }

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	x *tensor.Matrix

	// Reused output buffers, as in GELU.
	y, dx *tensor.Matrix
}

// Forward computes y = max(0, x).
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.x = x
	r.y = tensor.Ensure(r.y, x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			r.y.Data[i] = v
		} else {
			r.y.Data[i] = 0
		}
	}
	return r.y
}

// Backward returns dx = dy ∘ 1[x>0].
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	r.dx = tensor.Ensure(r.dx, dy.Rows, dy.Cols)
	for i, v := range r.x.Data {
		if v > 0 {
			r.dx.Data[i] = dy.Data[i]
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

// Params implements Module.
func (r *ReLU) Params() []*Param { return nil }

func gaussCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

func gaussPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Tanh is math.Tanh re-exported for symmetry with Sigmoid.
func Tanh(x float64) float64 { return math.Tanh(x) }
