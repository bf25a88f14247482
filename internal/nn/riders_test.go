package nn

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/tensor"
)

// TestGELUBackwardReusesForwardCDFBitwise: the Φ(x) Forward keeps is
// the value Backward used to recompute.
func TestGELUBackwardReusesForwardCDFBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, dy := tensor.New(5, 7), tensor.New(5, 7)
	x.Randomize(rng, 3)
	dy.Randomize(rng, 1)
	x.Data[0], x.Data[1], x.Data[2] = 0, math.Copysign(0, -1), 40
	var g GELU
	for pass := 0; pass < 2; pass++ { // the second pass runs in reused buffers
		y := g.Forward(x)
		dx := g.Backward(dy)
		for i, v := range x.Data {
			if want := v * gaussCDF(v); math.Float64bits(y.Data[i]) != math.Float64bits(want) {
				t.Fatalf("pass %d: y[%d] = %v, want %v", pass, i, y.Data[i], want)
			}
			if want := dy.Data[i] * (gaussCDF(v) + v*gaussPDF(v)); math.Float64bits(dx.Data[i]) != math.Float64bits(want) {
				t.Fatalf("pass %d: dx[%d] = %v, want %v", pass, i, dx.Data[i], want)
			}
		}
		x.Randomize(rng, 2)
	}
}

// gaussCDF and gaussPDF are GELU's scalar formulas, which tensor.GELU
// and tensor.GELUGrad reproduce bit for bit.
func gaussCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

func gaussPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// TestAdamSlabMatchesReferenceBitwise steps parameters Adam meets all
// at once, and one it meets a step later, against the textbook update
// with separately allocated moments.
func TestAdamSlabMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := [][2]int{{3, 4}, {1, 5}, {6, 2}}
	params := make([]*Param, len(shapes))
	for i, sh := range shapes {
		params[i] = NewParam("p", sh[0], sh[1])
		params[i].Value.Randomize(rng, 1)
	}
	type ref struct{ val, m, v []float64 }
	refs := make([]ref, len(params))
	for i, p := range params {
		n := len(p.Value.Data)
		refs[i] = ref{val: append([]float64(nil), p.Value.Data...), m: make([]float64, n), v: make([]float64, n)}
	}
	opt := NewAdam(1e-2)
	opt.Clip = 0
	for step := 1; step <= 4; step++ {
		list := params
		if step == 1 {
			list = params[:2] // the third parameter is met on step 2
		}
		bc1 := 1 - math.Pow(opt.Beta1, float64(step))
		bc2 := 1 - math.Pow(opt.Beta2, float64(step))
		for i, p := range list {
			p.Grad.Randomize(rng, 1)
			r := refs[i]
			for k, g := range p.Grad.Data {
				r.m[k] = opt.Beta1*r.m[k] + (1-opt.Beta1)*g
				r.v[k] = opt.Beta2*r.v[k] + (1-opt.Beta2)*g*g
				r.val[k] -= opt.LR * (r.m[k] / bc1) / (math.Sqrt(r.v[k]/bc2) + opt.Eps)
			}
		}
		opt.Step(list)
		for i, p := range list {
			for k, want := range refs[i].val {
				if math.Float64bits(p.Value.Data[k]) != math.Float64bits(want) {
					t.Fatalf("step %d param %d entry %d: %v, want %v", step, i, k, p.Value.Data[k], want)
				}
				if p.Grad.Data[k] != 0 {
					t.Fatalf("step %d param %d: gradient not zeroed", step, i)
				}
			}
		}
	}
}
