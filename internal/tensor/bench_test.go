package tensor

import (
	"fmt"
	"math/rand"
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
// AVX2 off) and the shipped path ("new": AVX2 where CPUID selected it,
// so on other machines "go" and "new" time the same code).
var benchSides = []string{"ref", "go", "new"}

// BenchmarkKernel drives the reference loops of kernel_ref_test.go and
// the shipped kernels from one binary at the shapes a customization run
// multiplies (sequence 9, Conv1D im2col width 160, model width 32, and
// the weight gradients of foldShapes per sample and stacked over
// foldSamples samples), so the layer delta reproduces on any box without
// a parent checkout. Shapes are output rows × inner × output columns.
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
	for _, side := range benchSides {
		for _, sh := range shapes {
			kc := kernelCases[sh.kernel]
			fn := kc.new
			if side == "ref" {
				fn = kc.ref
			}
			for _, pattern := range zeroPatterns[:3] { // "zerorows" is for the oracle only
				name := fmt.Sprintf("%s/%s_%dx%dx%d/%s", side, kc.name, sh.m, sh.k, sh.n, pattern)
				b.Run(name, func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					x, y := kc.operands(sh.m, sh.k, sh.n)
					fillPattern(x, pattern, rng)
					y.Randomize(rng, 1)
					dst := New(sh.m, sh.n)
					withAVX2(side != "go", func() {
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
func BenchmarkAxpy(b *testing.B) {
	for _, side := range benchSides {
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
				withAVX2(side != "go", func() {
					for i := 0; i < b.N; i++ {
						axpy(0.25, x[0], y)
					}
				})
			})
			b.Run(fmt.Sprintf("%s/axpy4/%d", side, n), func(b *testing.B) {
				b.SetBytes(int64(4 * 8 * n))
				withAVX2(side != "go", func() {
					for i := 0; i < b.N; i++ {
						axpy4(0.25, -0.5, 0.125, 0.0625, x[0], x[1], x[2], x[3], y)
					}
				})
			})
		}
	}
}
