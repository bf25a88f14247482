package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks compare the serial kernel (parallelism 1) against the
// pooled kernel at GOMAXPROCS across the sizes the training stack
// actually hits: 64 (header-scale), 256 (backbone-scale), 1024
// (stress / paper-scale surrogate).

func benchMatMul(b *testing.B, into func(dst, x, y *Matrix), n, parallelism int) {
	SetParallelism(parallelism)
	defer SetParallelism(0)
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
}

// benchSerialParallel runs one product at each size on the serial kernel
// and on the pool, in a fixed order so benchstat pairs the results.
func benchSerialParallel(b *testing.B, into func(dst, x, y *Matrix), sizes ...int) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("serial/%d", n), func(b *testing.B) { benchMatMul(b, into, n, 1) })
		b.Run(fmt.Sprintf("parallel/%d", n), func(b *testing.B) { benchMatMul(b, into, n, 0) })
	}
}

// 64, 96 and 128 bracket minParallelFlops: its comment quotes these.
func BenchmarkMatMul(b *testing.B) { benchSerialParallel(b, MatMulInto, 64, 96, 128, 256, 1024) }

func BenchmarkMatMulTransA(b *testing.B) { benchSerialParallel(b, MatMulTransAInto, 256, 1024) }

func BenchmarkMatMulTransB(b *testing.B) { benchSerialParallel(b, MatMulTransBInto, 256, 1024) }

// BenchmarkKernel drives the reference loops of kernel_ref_test.go and
// the shipped kernels from one binary at the shapes a customization run
// multiplies (sequence 9, Conv1D im2col width 160, model width 32), so
// the layer delta reproduces on any box without a parent checkout.
// Shapes are output rows × inner × output columns.
func BenchmarkKernel(b *testing.B) {
	shapes := []struct {
		kernel  int // index into kernelCases
		m, k, n int
	}{
		{0, 9, 160, 32}, // Conv1D.Forward: cols · W
		{1, 160, 9, 32}, // Conv1D.BackwardParams: colsᵀ · dy
		{2, 9, 32, 160}, // Conv1D.Backward: dy · Wᵀ
		{0, 9, 32, 32},  // Linear / attention projections
		{0, 9, 32, 128}, // MLP up-projection
		{0, 64, 64, 64}, // the parallel crossover
		{1, 64, 64, 64},
		{2, 64, 64, 64},
	}
	for _, side := range []string{"ref", "new"} {
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
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fn(dst, x, y, 0, sh.m)
					}
				})
			}
		}
	}
}

// BenchmarkAxpy times the vector kernels at the two lengths that matter:
// 19 844, one importance set of the exchange replay (what the combiner
// folds per upload and per output), and 32, one model-width row (the
// pools, Conv1D's col2im). "axpy4" is one grouped pass, to be read
// against four "axpy" passes.
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
		b.Run(fmt.Sprintf("axpy/%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				Axpy(0.25, x[0], y)
			}
		})
		b.Run(fmt.Sprintf("axpy4/%d", n), func(b *testing.B) {
			b.SetBytes(int64(4 * 8 * n))
			for i := 0; i < b.N; i++ {
				Axpy4(0.25, -0.5, 0.125, 0.0625, x[0], x[1], x[2], x[3], y)
			}
		})
	}
}
