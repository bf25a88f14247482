package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got.Data, want.Data)
	}
}

// transposed returns mᵀ, the explicit operand the transposed products
// are checked against.
func transposed(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.At(i, j)
		}
	}
	return out
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(3, 4)
	a.Randomize(rng, 1)
	b := New(5, 4)
	b.Randomize(rng, 1)
	got := MatMulTransB(a, b)
	want := MatMul(a, transposed(b))
	if !Equal(got, want, 1e-12) {
		t.Fatal("a·bᵀ mismatch")
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(4, 3)
	a.Randomize(rng, 1)
	b := New(4, 5)
	b.Randomize(rng, 1)
	got := MatMulTransA(a, b)
	want := MatMul(transposed(a), b)
	if !Equal(got, want, 1e-12) {
		t.Fatal("aᵀ·b mismatch")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	m.SoftmaxRows()
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("row %d has out-of-range prob %v", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Large inputs must not overflow (row 1 is uniform).
	for _, v := range m.Row(1) {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("uniform row got %v", v)
		}
	}
}

// TestMatMulDistributive checks the property a·(b+c) = a·b + a·c.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := New(n, n)
		b := New(n, n)
		c := New(n, n)
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		c.Randomize(rng, 1)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowAndMeanRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 5, 6, 7})
	mean := m.MeanRows()
	want := []float64{3, 4, 5}
	for i := range want {
		if math.Abs(mean[i]-want[i]) > 1e-12 {
			t.Fatalf("mean[%d]=%v want %v", i, mean[i], want[i])
		}
	}
	m.Row(0)[0] = 42
	if m.At(0, 0) != 42 {
		t.Fatal("Row must be a view")
	}
}

func TestAddRowVectorAndScale(t *testing.T) {
	m := New(2, 2)
	m.Fill(1)
	m.AddRowVector([]float64{1, 2})
	m.Scale(2)
	want := FromSlice(2, 2, []float64{4, 6, 4, 6})
	if !Equal(m, want, 0) {
		t.Fatalf("got %v", m.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestDotAndAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("dot=%v", got)
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("axpy: %v", y)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestNorm(t *testing.T) {
	a := FromSlice(1, 2, []float64{3, 4})
	if got := a.Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("norm=%v", got)
	}
	if New(2, 3).Norm() != 0 {
		t.Fatal("zero matrix should have norm 0")
	}
}
