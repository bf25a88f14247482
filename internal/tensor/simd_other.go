//go:build !amd64

package tensor

// useAVX2, useAVX512 and useFMA are false off amd64: the pure-Go kernels
// are the only path, and nothing calls the stubs below.
var useAVX2, useAVX512, useFMA = false, false, false

func mulAddRowsWide(d, as []float64, astride int, bs []float64, bstride int) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}

func matMulTransBWide(dst, a, b *Matrix, i0, i1 int) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}

func axpyAVX2(alpha float64, x, y []float64) { panic("tensor: no AVX2 kernels on this GOARCH") }

func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}

func adamAVX2(w, g, m, v []float64, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}

func mulAddRows8Wide(d []float64, dstride, width int, as []float64, astride, n int, bs []float64, bstride int) {
	panic("tensor: no AVX-512 kernels on this GOARCH")
}

func expAVX2(dst, x []float64, i int) int { panic("tensor: no AVX2 kernels on this GOARCH") }

func geluAVX2(y, cdf, x []float64, i int) int { panic("tensor: no AVX2 kernels on this GOARCH") }

func geluGradAVX2(dx, dy, x, cdf []float64, i int) int {
	panic("tensor: no AVX2 kernels on this GOARCH")
}
