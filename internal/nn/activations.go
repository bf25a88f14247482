package nn

import (
	"math"

	"acme/internal/tensor"
)

// GELU is the Gaussian Error Linear Unit activation, applied element-wise.
type GELU struct {
	x *tensor.Matrix

	// Reused output buffers; overwritten on the next pass, after
	// callers have consumed them (a Scratch's, under one). cdf keeps
	// Forward's Φ(x) for Backward, which would otherwise evaluate erf a
	// second time on the same x.
	y, dx, cdf tensor.Matrix
	sc         *Scratch
}

// Forward computes y = x·Φ(x) with the exact Gaussian CDF,
// Φ(x) = 0.5·(1 + erf(x/√2)) (tensor.GELU).
func (g *GELU) Forward(x *tensor.Matrix) *tensor.Matrix {
	g.x = x
	y := g.sc.Ensure(&g.y, x.Rows, x.Cols)
	cdf := g.sc.Ensure(&g.cdf, x.Rows, x.Cols)
	tensor.GELU(y.Data, cdf.Data, x.Data)
	return y
}

// Backward returns dx = dy ∘ gelu'(x), gelu'(x) = Φ(x) + x·φ(x)
// (tensor.GELUGrad).
func (g *GELU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := g.sc.Ensure(&g.dx, dy.Rows, dy.Cols)
	tensor.GELUGrad(dx.Data, dy.Data, g.x.Data, g.cdf.Data)
	return dx
}

// UseScratch implements ScratchUser.
func (g *GELU) UseScratch(s *Scratch) { g.sc, g.x = s, nil }

// Params implements Module.
func (g *GELU) Params() []*Param { return nil }

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
