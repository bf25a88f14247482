package tensor

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

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

// bitwiseEqual reports exact (tolerance-zero) equality, the contract
// ParallelFor promises for work split by rows.
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

// pooled runs kernel over ParallelFor's row blocks of [0, rows) with
// GOMAXPROCS at n, so the blocks run on goroutines of their own.
func pooled(n, rows int, kernel func(i0, i1 int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	ParallelFor(rows, kernel)
}

// equivalenceShapes covers non-divisible block sizes, degenerate rows
// and columns, and empty matrices. The equivalence tests run once per
// kernel path (forEachPath) and compare the exported product (one call)
// with its range kernel split into ParallelFor blocks.
var equivalenceShapes = []struct{ m, k, n int }{
	{64, 64, 64},    // exactly one block
	{128, 128, 128}, // two blocks in k
	{65, 130, 67},   // every dimension straddles a block boundary
	{130, 130, 131},
	{1, 300, 300}, // single output row
	{300, 300, 1}, // single output column
	{1, 1, 1},
	{128, 1, 128}, // inner dimension 1
	{0, 5, 7},     // empty output
	{5, 0, 7},     // empty inner dimension
	{7, 5, 0},
	{0, 0, 0},
	{97, 257, 97}, // prime-ish, larger than one block in k and j
}

func TestMatMulSerialParallelEquivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, sh := range equivalenceShapes {
			a := randomized(rng, sh.m, sh.k, 0.2)
			b := randomized(rng, sh.k, sh.n, 0.2)
			parallel := New(sh.m, sh.n)
			pooled(8, sh.m, func(i0, i1 int) { matMulRange(parallel, a, b, i0, i1) })
			bitwiseEqual(t, "matmul", MatMul(a, b), parallel)
		}
	})
}

func TestMatMulTransASerialParallelEquivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, sh := range equivalenceShapes {
			a := randomized(rng, sh.k, sh.m, 0.2) // aᵀ is m×k
			b := randomized(rng, sh.k, sh.n, 0.2)
			parallel := New(sh.m, sh.n)
			pooled(8, sh.m, func(i0, i1 int) { matMulTransARange(parallel, a, b, i0, i1) })
			bitwiseEqual(t, "matmul-transA", MatMulTransA(a, b), parallel)
		}
	})
}

func TestMatMulTransBSerialParallelEquivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, sh := range equivalenceShapes {
			a := randomized(rng, sh.m, sh.k, 0.2)
			b := randomized(rng, sh.n, sh.k, 0.2) // bᵀ is k×n
			parallel := New(sh.m, sh.n)
			pooled(8, sh.m, func(i0, i1 int) { matMulTransBRange(parallel, a, b, i0, i1) })
			bitwiseEqual(t, "matmul-transB", MatMulTransB(a, b), parallel)
		}
	})
}

// TestMatMulEquivalenceRandomShapes draws shapes across the block
// boundaries and splits them seven ways.
func TestMatMulEquivalenceRandomShapes(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(10))
		for trial := 0; trial < 30; trial++ {
			m := rng.Intn(200)
			k := rng.Intn(200)
			n := rng.Intn(200)
			a := randomized(rng, m, k, 0.3)
			b := randomized(rng, k, n, 0.3)
			parallel := New(m, n)
			pooled(7, m, func(i0, i1 int) { matMulRange(parallel, a, b, i0, i1) })
			bitwiseEqual(t, "matmul", MatMul(a, b), parallel)
		}
	})
}

func TestAccVariantsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomized(rng, 70, 90, 0)
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

// TestParallelPoolRace hammers ParallelFor from many goroutines at once,
// each splitting one product's rows into blocks that write only their
// own rows; run with -race to check each block has exactly one writer. Every result must equal the one-block
// pass. Race builds have only the /go subtest (useAVX2 is off there),
// whose kernel writes the detector can see.
func TestParallelPoolRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		a := randomized(rng, 128, 128, 0)
		b := randomized(rng, 128, 128, 0)
		want := New(128, 128)
		matMulRange(want, a, b, 0, a.Rows)

		const goroutines = 16
		const iters = 20
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					dst := New(128, 128)
					ParallelFor(a.Rows, func(i0, i1 int) { matMulRange(dst, a, b, i0, i1) })
					for j := range dst.Data {
						if dst.Data[j] != want.Data[j] {
							errs <- "concurrent ParallelFor blocks diverged from the one-block pass"
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
	})
}

// TestParallelForLeavesNoGoroutine: every goroutine a ParallelFor call
// starts is done by the time it returns, whatever the block count, so
// no goroutine of this package outlives a call — not a worker pool
// parked between calls either. A block's goroutine signals the call
// before it exits, so it may outlive the return by that last step; the
// goroutine dump must show none but the test's own within a second.
func TestParallelForLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	buf := make([]byte, 1<<20)
	// others returns the dumps of the goroutines other than this one
	// (the first in the dump) that run a function of this package.
	others := func() []string {
		dump := string(buf[:runtime.Stack(buf, true)])
		var found []string
		for _, g := range strings.Split(dump, "\n\n")[1:] {
			if strings.Contains(g, "acme/internal/tensor.") {
				found = append(found, g)
			}
		}
		return found
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 64, 1000} {
		rows := make([]int, n)
		ParallelFor(n, func(s, e int) {
			for i := s; i < e; i++ {
				rows[i]++
			}
		})
		for i, v := range rows {
			if v != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, v)
			}
		}
		left := others()
		for deadline := time.Now().Add(time.Second); len(left) > 0 && time.Now().Before(deadline); left = others() {
			runtime.Gosched()
		}
		if len(left) > 0 {
			t.Fatalf("n=%d: %d goroutines of this package outlive ParallelFor, the first:\n%s", n, len(left), left[0])
		}
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
