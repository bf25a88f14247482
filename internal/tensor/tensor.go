// Package tensor provides dense float64 matrix math for the micro
// neural-network stack in internal/nn.
//
// The package follows the gonum convention for dimension errors: a shape
// mismatch is a programmer error and panics with a descriptive message,
// the same way the runtime panics on an out-of-range slice index. All
// other failures return errors.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (not copied) as an r×c matrix.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with N(0, std²) values drawn from rng.
func (m *Matrix) Randomize(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// shapeCheck panics unless a and b have identical shapes.
func shapeCheck(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	shapeCheck("add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	shapeCheck("add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a-b.
func Sub(a, b *Matrix) *Matrix {
	shapeCheck("sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Hadamard returns the element-wise product a∘b.
func Hadamard(a, b *Matrix) *Matrix {
	shapeCheck("hadamard", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale multiplies every element of m by s, in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowVector adds vector v (length Cols) to every row of m, in place.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: row vector length %d want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row, in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// SumRows returns the column-wise sum of m as a vector of length Cols.
func (m *Matrix) SumRows() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// MeanRows returns the column-wise mean of m.
func (m *Matrix) MeanRows() []float64 {
	out := m.SumRows()
	if m.Rows == 0 {
		return out
	}
	inv := 1 / float64(m.Rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
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

// Dot returns the dot product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x for equal-length vectors. Nothing is
// skipped: a zero alpha still multiplies, so 0·Inf makes a NaN. The loop
// takes four elements per iteration; each element is still one rounded
// multiply-add, so the unrolling does not change a bit.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length %d vs %d", len(x), len(y)))
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Axpy4 computes y += a0*x0; y += a1*x1; y += a2*x2; y += a3*x3 in one
// pass over y: per element the same four rounded multiply-adds in the
// same order as four Axpy calls, with one load and one store of y
// instead of four. Like Axpy it skips nothing.
func Axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	if len(x0) != len(y) || len(x1) != len(y) || len(x2) != len(y) || len(x3) != len(y) {
		panic(fmt.Sprintf("tensor: axpy4 lengths %d, %d, %d, %d vs %d", len(x0), len(x1), len(x2), len(x3), len(y)))
	}
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for k, v := range y {
		v += a0 * x0[k]
		v += a1 * x1[k]
		v += a2 * x2[k]
		v += a3 * x3[k]
		y[k] = v
	}
}
