package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// withParallelism runs f under the given parallelism setting and
// restores the default afterwards.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

// bitwiseEqual reports exact (tolerance-zero) equality, the contract
// the parallel kernels promise relative to the serial ones.
func bitwiseEqual(t *testing.T, op string, serial, parallel *Matrix) {
	t.Helper()
	if serial.Rows != parallel.Rows || serial.Cols != parallel.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", op, serial.Rows, serial.Cols, parallel.Rows, parallel.Cols)
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("%s: element %d differs: serial %v parallel %v", op, i, serial.Data[i], parallel.Data[i])
		}
	}
}

// equivalenceShapes covers non-divisible block sizes, degenerate rows
// and columns, and empty matrices.
var equivalenceShapes = []struct{ m, k, n int }{
	{64, 64, 64},  // exactly one block, below the parallel crossover
	{96, 96, 96},  // exactly the parallel crossover
	{65, 130, 67}, // every dimension straddles a block boundary
	{130, 65, 131},
	{1, 300, 300}, // single output row
	{300, 300, 1}, // single output column
	{1, 1, 1},
	{128, 1, 128}, // inner dimension 1
	{0, 5, 7},     // empty output
	{5, 0, 7},     // empty inner dimension
	{7, 5, 0},
	{0, 0, 0},
	{97, 257, 65}, // prime-ish, larger than one block in k and j
}

func randomized(rng *rand.Rand, r, c int, sparsity float64) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		if rng.Float64() < sparsity {
			continue // keep zeros: exercises the zero-skip fast path
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range equivalenceShapes {
		a := randomized(rng, sh.m, sh.k, 0.2)
		b := randomized(rng, sh.k, sh.n, 0.2)
		var serial, parallel *Matrix
		withParallelism(t, 1, func() { serial = MatMul(a, b) })
		withParallelism(t, 8, func() { parallel = MatMul(a, b) })
		bitwiseEqual(t, "matmul", serial, parallel)
	}
}

func TestMatMulTransASerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range equivalenceShapes {
		a := randomized(rng, sh.k, sh.m, 0.2) // aᵀ is m×k
		b := randomized(rng, sh.k, sh.n, 0.2)
		var serial, parallel *Matrix
		withParallelism(t, 1, func() { serial = MatMulTransA(a, b) })
		withParallelism(t, 8, func() { parallel = MatMulTransA(a, b) })
		bitwiseEqual(t, "matmul-transA", serial, parallel)
	}
}

func TestMatMulTransBSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range equivalenceShapes {
		a := randomized(rng, sh.m, sh.k, 0.2)
		b := randomized(rng, sh.n, sh.k, 0.2) // bᵀ is k×n
		var serial, parallel *Matrix
		withParallelism(t, 1, func() { serial = MatMulTransB(a, b) })
		withParallelism(t, 8, func() { parallel = MatMulTransB(a, b) })
		bitwiseEqual(t, "matmul-transB", serial, parallel)
	}
}

// TestMatMulEquivalenceRandomShapes fuzzes shapes around the serial
// fallback threshold and the block boundaries.
func TestMatMulEquivalenceRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		m := rng.Intn(200)
		k := rng.Intn(200)
		n := rng.Intn(200)
		a := randomized(rng, m, k, 0.3)
		b := randomized(rng, k, n, 0.3)
		var serial, parallel *Matrix
		withParallelism(t, 1, func() { serial = MatMul(a, b) })
		withParallelism(t, 7, func() { parallel = MatMul(a, b) })
		bitwiseEqual(t, "matmul", serial, parallel)
	}
}

func TestAccVariantsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomized(rng, 70, 90, 0)
	b := randomized(rng, 90, 80, 0)
	base := randomized(rng, 70, 80, 0)

	dst := base.Clone()
	MatMulAcc(dst, a, b)
	want := Add(base, MatMul(a, b))
	if !Equal(dst, want, 1e-12) {
		t.Fatal("MatMulAcc does not accumulate")
	}

	y := randomized(rng, 70, 80, 0)
	dstA := New(90, 80)
	dstA.Fill(1)
	MatMulTransAAcc(dstA, a, y) // aᵀ·y is 90×80
	wantA := MatMulTransA(a, y)
	for i := range wantA.Data {
		wantA.Data[i]++
	}
	if !Equal(dstA, wantA, 1e-12) {
		t.Fatal("MatMulTransAAcc does not accumulate")
	}

	c := randomized(rng, 80, 90, 0)
	dstB := New(70, 80)
	dstB.Fill(-2)
	MatMulTransBAcc(dstB, a, c)
	wantB := MatMulTransB(a, c)
	for i := range wantB.Data {
		wantB.Data[i] -= 2
	}
	if !Equal(dstB, wantB, 1e-12) {
		t.Fatal("MatMulTransBAcc does not accumulate")
	}
}

// TestParallelPoolRace hammers the worker pool from many goroutines at
// once; run with -race to check the pool hands each row block to
// exactly one writer.
func TestParallelPoolRace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomized(rng, 96, 96, 0)
	b := randomized(rng, 96, 96, 0)
	var want *Matrix
	withParallelism(t, 1, func() { want = MatMul(a, b) })
	SetParallelism(8)
	defer SetParallelism(0)

	const goroutines = 16
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(96, 96)
			for i := 0; i < iters; i++ {
				MatMulInto(dst, a, b)
				for j := range dst.Data {
					if dst.Data[j] != want.Data[j] {
						errs <- "concurrent MatMulInto diverged from serial result"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestSetParallelismClamp(t *testing.T) {
	SetParallelism(-5)
	defer SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after negative set", Parallelism())
	}
}

func TestEnsure(t *testing.T) {
	m := New(3, 4)
	if Ensure(m, 3, 4) != m {
		t.Fatal("Ensure must reuse a matching matrix")
	}
	n := Ensure(m, 2, 4)
	if n == m || n.Rows != 2 || n.Cols != 4 {
		t.Fatal("Ensure must allocate on shape mismatch")
	}
	if z := Ensure(nil, 1, 1); z == nil || len(z.Data) != 1 {
		t.Fatal("Ensure must allocate for nil input")
	}
}

func TestFusedHelpers(t *testing.T) {
	x := FromSlice(2, 2, []float64{1, 2, 3, 4})
	y := FromSlice(2, 2, []float64{10, 20, 30, 40})
	AxpyRows(2, x, y)
	if !Equal(y, FromSlice(2, 2, []float64{12, 24, 36, 48}), 0) {
		t.Fatalf("AxpyRows: %v", y.Data)
	}

	v := []float64{1, 2}
	ScaleAddVec(3, v, []float64{10, 20})
	if v[0] != 13 || v[1] != 26 {
		t.Fatalf("ScaleAddVec: %v", v)
	}

	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2})
	dots := DotRows(a, b, nil)
	if dots[0] != 6 || dots[1] != 30 {
		t.Fatalf("DotRows: %v", dots)
	}
	reuse := DotRows(a, b, dots)
	if &reuse[0] != &dots[0] {
		t.Fatal("DotRows must reuse a right-sized slice")
	}

	sums := []float64{1, 1, 1}
	a.SumRowsInto(sums)
	if sums[0] != 6 || sums[1] != 8 || sums[2] != 10 {
		t.Fatalf("SumRowsInto: %v", sums)
	}

	dst := New(2, 3)
	AddInto(dst, a, b)
	if !Equal(dst, Add(a, b), 0) {
		t.Fatal("AddInto mismatch")
	}
}
