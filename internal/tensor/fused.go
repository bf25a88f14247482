package tensor

import "fmt"

// Fused, allocation-free helpers for the training hot path. They exist
// so internal/nn and the distance loops can accumulate into long-lived
// buffers instead of materializing temporaries every step.

// Ensure returns m when it already has shape r×c, otherwise a freshly
// allocated r×c matrix. The contents of a reused matrix are unspecified;
// callers must fully overwrite them. It is the idiom for per-layer
// scratch buffers: buf = tensor.Ensure(buf, r, c).
func Ensure(m *Matrix, r, c int) *Matrix {
	if m != nil && m.Rows == r && m.Cols == c {
		return m
	}
	return New(r, c)
}

// AddInto computes dst = a+b, reusing dst's storage.
func AddInto(dst, a, b *Matrix) {
	shapeCheck("add", a, b)
	shapeCheck("add", dst, a)
	for i, av := range a.Data {
		dst.Data[i] = av + b.Data[i]
	}
}

// AxpyRows computes y += alpha·x over whole matrices — the matrix form
// of Axpy, fusing Scale+AddInPlace without a temporary.
func AxpyRows(alpha float64, x, y *Matrix) {
	shapeCheck("axpy-rows", x, y)
	Axpy(alpha, x.Data, y.Data)
}

// DotRows computes out[i] = x.Row(i)·y.Row(i) for every row, reusing
// out when it already has length x.Rows. Returns the filled slice.
func DotRows(x, y *Matrix, out []float64) []float64 {
	shapeCheck("dot-rows", x, y)
	if len(out) != x.Rows {
		out = make([]float64, x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		out[i] = Dot(x.Row(i), y.Row(i))
	}
	return out
}

// SumRowsInto accumulates the column-wise sums of m into dst, which
// must have length m.Cols. Unlike SumRows it adds to dst's existing
// contents — the shape of a bias-gradient accumulation.
func (m *Matrix) SumRowsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: sum-rows dst length %d want %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
}
