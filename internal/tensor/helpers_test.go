package tensor

import "math"

// The allocating forms of the kernels and the whole-matrix helpers
// below serve only this package's tests; production code writes into
// buffers it owns through the Into/InPlace forms.

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulTransB returns a·bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransA returns aᵀ·b.
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(out, a, b)
	return out
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	out := a.Clone()
	AddInPlace(out, b)
	return out
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	return math.Sqrt(Dot(m.Data, m.Data))
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
