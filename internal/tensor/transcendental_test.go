package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refGELU and refGELUGrad are the scalar formulas of nn's GELU loops,
// which GELU and GELUGrad must reproduce bit for bit; Exp's reference
// is math.Exp itself.
func refGELU(v float64) (y, cdf float64) {
	c := 0.5 * (1 + math.Erf(v/math.Sqrt2))
	return v * c, c
}

func refGELUGrad(dy, v, cdf float64) float64 {
	return dy * (cdf + v*(math.Exp(-0.5*v*v)/math.Sqrt(2*math.Pi)))
}

// transcendentalEdges are erf's range boundaries as GELU inputs (u =
// x/√2 at 2⁻²⁸, 0.84375, 1.25, 1/0.35 and 6, and erf.go's VeryTiny),
// exp's overflow and underflow edges, where GELUGrad's exp leaves the
// normal range (|x| near 37.6), and the special values, each with its
// Nextafter neighbours and both signs.
func transcendentalEdges() []float64 {
	var out []float64
	for _, b := range []float64{
		0x1p-28 * math.Sqrt2, 0.84375 * math.Sqrt2, 1.25 * math.Sqrt2, math.Sqrt2 / 0.35, 6 * math.Sqrt2,
		0x1p-28, 0.84375, 1.25, 1 / 0.35, 6, math.Float64frombits(0x0080000000000000) * math.Sqrt2,
		708, 708.39641853226408, 709.78271289338397, 709.7, 745.13321910194110, 745.2, 1024, 2e9, 3e9,
		37.5, 37.6, 37.7, 38.6, 38.7, 1, 0.5, 1e-300, math.MaxFloat64, 5e-324, 2.2250738585072014e-308,
	} {
		for _, v := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	return append(out, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1))
}

// sameFloat reports whether a and b have the same bits, any two NaNs
// counting as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkTranscendentals runs GELU, GELUGrad and Exp over x (and dy) on
// the current path and requires the scalar formulas' bits, element by
// element. Exp runs once into a separate slice and once in place.
func checkTranscendentals(t *testing.T, name string, x, dy []float64) {
	t.Helper()
	n := len(x)
	buf := make([]float64, 5*n)
	y, cdf, dx, e, ein := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
	GELU(y, cdf, x)
	GELUGrad(dx, dy, x, cdf)
	Exp(e, x)
	copy(ein, x)
	Exp(ein, ein)
	for i, v := range x {
		wy, wc := refGELU(v)
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"gelu y", y[i], wy},
			{"gelu cdf", cdf[i], wc},
			{"gelu-grad", dx[i], refGELUGrad(dy[i], v, wc)},
			{"exp", e[i], math.Exp(v)},
			{"exp in place", ein[i], math.Exp(v)},
		} {
			if !sameFloat(c.got, c.want) {
				t.Fatalf("%s: %s(%v = %#x) [%d of %d] = %v (%#x), want %v (%#x)", name, c.what, v,
					math.Float64bits(v), i, n, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
			}
		}
	}
}

// TestTranscendentalsMatchScalarBitwise holds GELU, GELUGrad and Exp to
// math.Erf and math.Exp on every path: the edge values one at a time at
// every position of blocks up to 13 long (the masked tail, a scalar
// block among vector ones), then runs of random inputs across the
// magnitudes that reach every erf range and exp's both ends.
func TestTranscendentalsMatchScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	edges := transcendentalEdges()
	forEachPath(t, func(t *testing.T) {
		for n := 0; n <= 13; n++ {
			x, dy := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], dy[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			checkTranscendentals(t, fmt.Sprintf("n=%d", n), x, dy)
			for pos := 0; pos < n; pos++ {
				for _, v := range edges {
					saved := x[pos]
					x[pos] = v
					checkTranscendentals(t, fmt.Sprintf("n=%d pos=%d", n, pos), x, dy)
					x[pos] = saved
				}
			}
		}
		for _, scale := range []float64{1e-9, 0.3, 1, 2, 4, 30, 400} {
			x, dy := make([]float64, 20000), make([]float64, 20000)
			for i := range x {
				x[i], dy[i] = scale*rng.NormFloat64(), rng.NormFloat64()
			}
			checkTranscendentals(t, fmt.Sprintf("normal·%v", scale), x, dy)
		}
		x, dy := make([]float64, 20000), make([]float64, 20000)
		for i := range x {
			x[i], dy[i] = math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		}
		checkTranscendentals(t, "random bits", x, dy)
	})
}

// TestTranscendentalsAllocateNothing: no path allocates in the three
// wrappers, at the run's shapes (a 9 × 64 GELU, a 10-logit exp) and
// with a scalar block among vector ones.
func TestTranscendentalsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	buf := New(5, 9*64)
	buf.Randomize(rng, 2)
	x, dy, y, cdf, dx := buf.Row(0), buf.Row(1), buf.Row(2), buf.Row(3), buf.Row(4)
	x[5] = math.NaN()
	logits := dy[:10]
	forEachPath(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"GELU":     func() { GELU(y, cdf, x) },
			"GELUGrad": func() { GELUGrad(dx, dy, x, cdf) },
			"Exp":      func() { Exp(logits, logits) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("%s: %v allocs per call, want 0", name, allocs)
			}
		}
	})
}

// TestTranscendentalsRejectShortOperands: a slice shorter than x panics
// in the Go wrapper before any kernel runs.
func TestTranscendentalsRejectShortOperands(t *testing.T) {
	long, short := make([]float64, 9), make([]float64, 8)
	for name, f := range map[string]func(){
		"GELU y":         func() { GELU(short, long, long) },
		"GELU cdf":       func() { GELU(long, short, long) },
		"GELUGrad dx":    func() { GELUGrad(short, long, long, long) },
		"GELUGrad dy":    func() { GELUGrad(long, short, long, long) },
		"GELUGrad cdf":   func() { GELUGrad(long, long, long, short) },
		"Exp dst":        func() { Exp(short, long) },
		"Exp dst longer": func() { Exp(long, short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzTranscendentals reads its input as (x, dy) pairs of float64 bit
// patterns, little-endian, 16 bytes a pair, and requires GELU, GELUGrad
// and Exp on every path to give the scalar formulas' bits (any two NaNs
// equal). Its seed corpus (testdata/fuzz/FuzzTranscendentals) holds
// erf's range boundaries, exp's edges, ±0, NaN, ±Inf and subnormals.
func FuzzTranscendentals(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		n := len(in) / 16
		x, dy := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[16*i:]))
			dy[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[16*i+8:]))
		}
		for _, p := range kernelPaths() {
			withPath(p, func() { checkTranscendentals(t, p.name, x, dy) })
		}
	})
}
