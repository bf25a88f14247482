package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkMatMul* time the three products at the sizes the training
// stack hits: 64 (header-scale), 256 (backbone-scale), 1024 (stress /
// paper-scale surrogate).
func benchMatMul(b *testing.B, into func(dst, x, y *Matrix), sizes ...int) {
	for _, n := range sizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := New(n, n)
			y := New(n, n)
			x.Randomize(rng, 1)
			y.Randomize(rng, 1)
			dst := New(n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				into(dst, x, y)
			}
		})
	}
}

func BenchmarkMatMul(b *testing.B) { benchMatMul(b, MatMulInto, 64, 256, 1024) }

func BenchmarkMatMulTransA(b *testing.B) { benchMatMul(b, MatMulTransAInto, 256, 1024) }

func BenchmarkMatMulTransB(b *testing.B) { benchMatMul(b, MatMulTransBInto, 64, 256, 1024) }

// benchSides are the sides of BenchmarkKernel and BenchmarkAxpy: the
// reference loops of kernel_ref_test.go, the portable kernels ("go",
// SIMD off), the AVX2 kernels ("avx2", AVX-512 off) and the shipped path
// ("new": the widest tier CPUID selected). Where a tier is missing its
// side times the next narrower path: on an AVX2-only machine "avx2" and
// "new" time the same code.
var benchSides = []string{"ref", "go", "avx2", "new"}

// benchPath is the kernel path a bench side runs on.
func benchPath(side string) kernelPath {
	switch side {
	case "go":
		return kernelPath{"go", false, false}
	case "avx2":
		return kernelPath{"avx2", useAVX2, false}
	}
	return kernelPath{side, useAVX2, useAVX512}
}

// BenchmarkKernel drives the reference loops of kernel_ref_test.go and
// the kernels of every path from one binary at the shapes a customization run
// multiplies (sequence 9, Conv1D im2col width 160, model width 32, and
// the weight gradients of foldShapes per sample and stacked over
// foldSamples samples, and of headerFoldShapes per sample and stacked
// over foldSamples), so the layer delta reproduces on any box without
// a parent checkout. Shapes are output rows × inner × output columns.
// The sides of one cell run back to back (names stay side first), so a
// shared machine's drift over the minutes of a run lands on them alike.
func BenchmarkKernel(b *testing.B) {
	type shape struct {
		kernel  int // index into kernelCases
		m, k, n int
	}
	shapes := []shape{
		{0, 9, 160, 32}, // Conv1D.Forward: cols · W
		{1, 160, 9, 32}, // Conv1D.BackwardParams: colsᵀ · dy
		{2, 9, 32, 160}, // Conv1D.Backward: dy · Wᵀ
		{0, 9, 32, 32},  // Linear / attention projections
		{0, 9, 32, 128}, // MLP up-projection
		{0, 64, 64, 64}, // one blockK panel
		{1, 64, 64, 64},
		{2, 64, 64, 64},
		{2, 1, 100, 32}, // the header head's FC2.Backward: dy · Wᵀ
		{2, 1, 32, 64},  // FC1.Backward
		{2, 9, 8, 9},    // attention scores q·kᵀ and dA per head
		{2, 9, 64, 32},  // the MLP's Linear.Backward, both weights
		{2, 9, 32, 64},
	}
	for _, f := range foldShapes { // dW = xᵀ · dy, one sample and the fold's stack
		shapes = append(shapes, shape{1, f[0], f[1], f[2]}, shape{1, f[0], foldSamples * f[1], f[2]})
	}
	for _, f := range headerFoldShapes { // a header's dW, one sample and a Pass's stack
		for _, sh := range []shape{{1, f[0], f[1], f[2]}, {1, f[0], foldSamples * f[1], f[2]}} {
			if !slices.Contains(shapes, sh) {
				shapes = append(shapes, sh)
			}
		}
	}
	for _, sh := range shapes {
		kc := kernelCases[sh.kernel]
		for _, pattern := range zeroPatterns[:3] { // "zerorows" is for the oracle only
			for _, side := range benchSides {
				fn := kc.new
				if side == "ref" {
					fn = kc.ref
				}
				name := fmt.Sprintf("%s/%s_%dx%dx%d/%s", side, kc.name, sh.m, sh.k, sh.n, pattern)
				b.Run(name, func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					x, y := kc.operands(sh.m, sh.k, sh.n)
					fillPattern(x, pattern, rng)
					y.Randomize(rng, 1)
					dst := New(sh.m, sh.n)
					withPath(benchPath(side), func() {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							fn(dst, x, y, 0, sh.m)
						}
					})
				})
			}
		}
	}
}

// BenchmarkAxpy times the vector kernels at the two lengths that matter:
// 19 844, one importance set of the exchange replay (what the combiner
// folds per upload and per output), and 32, one model-width row (the
// pools, Conv1D's col2im). "axpy4" is one grouped pass, to be read
// against four "axpy" passes; its "ref" side is four refAxpy passes.
// The sides of one length run back to back, as in BenchmarkKernel.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{19844, 32} {
		rng := rand.New(rand.NewSource(1))
		var x [4][]float64
		for i := range x {
			x[i] = make([]float64, n)
			for k := range x[i] {
				x[i][k] = rng.NormFloat64()
			}
		}
		y := make([]float64, n)
		for _, side := range benchSides {
			axpy, axpy4 := Axpy, Axpy4
			if side == "ref" {
				axpy = refAxpy
				axpy4 = func(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
					refAxpy(a0, x0, y)
					refAxpy(a1, x1, y)
					refAxpy(a2, x2, y)
					refAxpy(a3, x3, y)
				}
			}
			b.Run(fmt.Sprintf("%s/axpy/%d", side, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				withPath(benchPath(side), func() {
					for i := 0; i < b.N; i++ {
						axpy(0.25, x[0], y)
					}
				})
			})
			b.Run(fmt.Sprintf("%s/axpy4/%d", side, n), func(b *testing.B) {
				b.SetBytes(int64(4 * 8 * n))
				withPath(benchPath(side), func() {
					for i := 0; i < b.N; i++ {
						axpy4(0.25, -0.5, 0.125, 0.0625, x[0], x[1], x[2], x[3], y)
					}
				})
			})
		}
	}
}

// BenchmarkAdamStep times one Adam update of a device header's
// parameters (19 844, the exchange replay's importance set) on the
// portable loop ("go") and the shipped path ("new").
func BenchmarkAdamStep(b *testing.B) {
	const n = 19844
	rng := rand.New(rand.NewSource(1))
	st := New(4, n) // w, g, m, v
	st.Randomize(rng, 1)
	for i, x := range st.Row(3) {
		st.Row(3)[i] = x * x
	}
	for _, side := range []string{"go", "new"} {
		b.Run(fmt.Sprintf("%s/%d", side, n), func(b *testing.B) {
			b.SetBytes(int64(4 * 8 * n))
			withPath(benchPath(side), func() {
				for i := 0; i < b.N; i++ {
					AdamStep(st.Row(0), st.Row(1), st.Row(2), st.Row(3), 0.9, 0.999, 0.5, 0.25, 1e-3, 1e-8)
				}
			})
		})
	}
}

// BenchmarkTranscendental times GELU, GELUGrad and Exp on the portable
// loops ("go") and the shipped path ("new") at the shapes a
// customization run hands them: a 9 × 64 GELU (the MLP's hidden layer
// over nine tokens), a 9-long softmax row of attention scores and 10
// logits, the exps given their max-shifted arguments (≤ 0) as
// SoftmaxRows and nn.CrossEntropy do.
func BenchmarkTranscendental(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 9 * 64
	x, dy, y, cdf, dx := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], dy[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	shifted := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = 2 * rng.NormFloat64()
		}
		m := slices.Max(v)
		for i := range v {
			v[i] -= m
		}
		return v
	}
	row, logits := shifted(9), shifted(10)
	exp := make([]float64, 10)
	cells := []struct {
		name string
		f    func()
	}{
		{"gelu_9x64", func() { GELU(y, cdf, x) }},
		{"gelugrad_9x64", func() { GELUGrad(dx, dy, x, cdf) }},
		{"exp_9", func() { Exp(exp[:9], row) }},
		{"exp_10", func() { Exp(exp, logits) }},
	}
	for _, c := range cells {
		for _, side := range []string{"go", "new"} {
			b.Run(side+"/"+c.name, func(b *testing.B) {
				withPath(benchPath(side), func() {
					for i := 0; i < b.N; i++ {
						c.f()
					}
				})
			})
		}
	}
}
