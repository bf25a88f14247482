package tensor

import (
	"fmt"
	"math"
)

// GELU writes Φ(x) = 0.5·(1 + erf(x/√2)) into cdf and x·Φ(x) into y,
// element by element: GELU's forward pass, and the Φ its backward pass
// reuses.
//
// GELU, GELUGrad and Exp give the bits of their scalar loops (geluGo,
// geluGradGo, expGo) on every path. Where the CPU has AVX2 and FMA they
// run four lanes at a time (transcendental_amd64.s), each lane doing
// what math.Erf and math.Exp do; a block of four holding a lane the
// kernels leave to the scalar code (NaN, ±Inf, an erf argument non-zero
// below 2⁻¹⁰¹⁵, an exp result outside the normal range) runs in the
// scalar loop. None of them allocates.
func GELU(y, cdf, x []float64) {
	if len(y) != len(x) || len(cdf) != len(x) {
		panic(fmt.Sprintf("tensor: gelu lengths %d, %d vs %d", len(y), len(cdf), len(x)))
	}
	if !useAVX2 || !useFMA {
		geluGo(y, cdf, x)
		return
	}
	for i := 0; i < len(x); {
		if i = geluAVX2(y, cdf, x, i); i < len(x) {
			j := min(i+4, len(x))
			geluGo(y[i:j], cdf[i:j], x[i:j])
			i = j
		}
	}
}

// GELUGrad writes dx = dy·(cdf + x·φ(x)), GELU's derivative with φ the
// standard normal density and cdf the Φ(x) GELU wrote.
func GELUGrad(dx, dy, x, cdf []float64) {
	if len(dx) != len(x) || len(dy) != len(x) || len(cdf) != len(x) {
		panic(fmt.Sprintf("tensor: gelu-grad lengths %d, %d, %d vs %d", len(dx), len(dy), len(cdf), len(x)))
	}
	if !useAVX2 || !useFMA {
		geluGradGo(dx, dy, x, cdf)
		return
	}
	for i := 0; i < len(x); {
		if i = geluGradAVX2(dx, dy, x, cdf, i); i < len(x) {
			j := min(i+4, len(x))
			geluGradGo(dx[i:j], dy[i:j], x[i:j], cdf[i:j])
			i = j
		}
	}
}

// Exp writes dst[i] = math.Exp(x[i]); dst may be x.
func Exp(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: exp lengths %d vs %d", len(dst), len(x)))
	}
	if !useAVX2 || !useFMA {
		expGo(dst, x)
		return
	}
	for i := 0; i < len(x); {
		if i = expAVX2(dst, x, i); i < len(x) {
			j := min(i+4, len(x))
			expGo(dst[i:j], x[i:j])
			i = j
		}
	}
}

// geluGo, geluGradGo and expGo are the portable loops.
func geluGo(y, cdf, x []float64) {
	y, cdf = y[:len(x)], cdf[:len(x)]
	for i, v := range x {
		c := gaussCDF(v)
		cdf[i] = c
		y[i] = v * c
	}
}

func geluGradGo(dx, dy, x, cdf []float64) {
	dx, dy, cdf = dx[:len(x)], dy[:len(x)], cdf[:len(x)]
	for i, v := range x {
		dx[i] = dy[i] * (cdf[i] + v*gaussPDF(v))
	}
}

func expGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

func gaussCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

func gaussPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}
