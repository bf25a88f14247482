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

func gaussCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

func gaussPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
