//go:build !amd64

package tensor

// useAVX2 is false off amd64: the pure-Go kernels are the only path, and
// nothing calls the stubs below.
var useAVX2 = false

func mulAddRowsWide(d, as []float64, astride int, bs []float64, bstride int) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}

func axpyAVX2(alpha float64, x, y []float64) { panic("tensor: no AVX2 kernels on this GOARCH") }

func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}
