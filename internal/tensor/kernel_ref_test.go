package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three loops below are the serial kernels as they stood before the
// register-blocked rewrite (one load–add–store sweep of the output row
// per multiplier, one scalar accumulator per a·bᵀ cell), kept verbatim
// as the reference the shipped kernels must match bit for bit and as
// the "ref" side of BenchmarkKernel.

func refMatMulRange(dst, a, b *Matrix, i0, i1 int) {
	for k0 := 0; k0 < a.Cols; k0 += blockK {
		k1 := k0 + blockK
		if k1 > a.Cols {
			k1 = a.Cols
		}
		for j0 := 0; j0 < b.Cols; j0 += blockJ {
			j1 := j0 + blockJ
			if j1 > b.Cols {
				j1 = b.Cols
			}
			for i := i0; i < i1; i++ {
				arow := a.Row(i)
				dseg := dst.Row(i)[j0:j1]
				for k := k0; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					bseg := b.Row(k)[j0:j1]
					for j, bv := range bseg {
						dseg[j] += av * bv
					}
				}
			}
		}
	}
}

func refMatMulTransBRange(dst, a, b *Matrix, i0, i1 int) {
	for p0 := 0; p0 < b.Rows; p0 += blockK {
		p1 := p0 + blockK
		if p1 > b.Rows {
			p1 = b.Rows
		}
		for i := i0; i < i1; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for j := p0; j < p1; j++ {
				brow := b.Row(j)
				var s float64
				for k := range arow {
					s += arow[k] * brow[k]
				}
				drow[j] += s
			}
		}
	}
}

func refMatMulTransARange(dst, a, b *Matrix, i0, i1 int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// kernelCase binds one product shape's reference and shipped kernels to
// the operand shapes that produce an m×n output over inner dimension k.
type kernelCase struct {
	name     string
	ref, new func(dst, a, b *Matrix, i0, i1 int)
	operands func(m, k, n int) (a, b *Matrix)
	skipZero bool // a zero left-operand entry contributes nothing
}

var kernelCases = []kernelCase{
	{"ab", refMatMulRange, matMulRange,
		func(m, k, n int) (*Matrix, *Matrix) { return New(m, k), New(k, n) }, true},
	{"aTb", refMatMulTransARange, matMulTransARange,
		func(m, k, n int) (*Matrix, *Matrix) { return New(k, m), New(k, n) }, true},
	{"abT", refMatMulTransBRange, matMulTransBRange,
		func(m, k, n int) (*Matrix, *Matrix) { return New(m, k), New(n, k) }, false},
}

// Left-operand zero patterns. "padded" is what Conv1D's im2col produces:
// each row is a run of equal-width tap blocks, and the blocks whose tap
// reaches past either end of the sequence are zero.
var zeroPatterns = []string{"dense", "zeros40", "padded", "zerorows"}

func fillPattern(a *Matrix, pattern string, rng *rand.Rand) {
	a.Randomize(rng, 1)
	switch pattern {
	case "zeros40":
		for i := range a.Data {
			if rng.Float64() < 0.4 {
				a.Data[i] = 0
			}
		}
	case "padded":
		const taps = 5
		width := (a.Cols + taps - 1) / taps
		for r := 0; r < a.Rows; r++ {
			for c := 0; c < a.Cols; c++ {
				if src := r + c/width - taps/2; src < 0 || src >= a.Rows {
					a.Data[r*a.Cols+c] = 0
				}
			}
		}
	case "zerorows":
		for r := 0; r < a.Rows; r += 2 {
			for c := 0; c < a.Cols; c++ {
				a.Data[r*a.Cols+c] = 0
			}
		}
	}
}

// sameBits is the oracle's equality: identical bit patterns, with any
// two NaNs equal. A NaN's payload is picked by the operand order of the
// add instruction the compiler happens to emit, not by the order of the
// reduction, so it is the one thing the kernels do not promise.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

func requireSameBits(t *testing.T, what string, want, got *Matrix) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(want.Data[i], got.Data[i]) {
			t.Fatalf("%s: element %d (row %d col %d): reference %v (%#x), kernel %v (%#x)", what, i,
				i/want.Cols, i%want.Cols, want.Data[i], math.Float64bits(want.Data[i]),
				got.Data[i], math.Float64bits(got.Data[i]))
		}
	}
}

// oracleDim draws a dimension that lands in every remainder class
// mod 4, on both sides of blockK and blockJ, and on 0 and 1.
func oracleDim(rng *rand.Rand, block int) int {
	switch rng.Intn(8) {
	case 0:
		return rng.Intn(2) // empty or single
	case 1, 2:
		return block - 3 + rng.Intn(8) // block-3 … block+4
	case 3:
		return 2*block - 2 + rng.Intn(5)
	default:
		return 1 + rng.Intn(40)
	}
}

// TestKernelsMatchReferenceBitwise is the fail-closed oracle for the
// register-blocked kernels: on seeded random shapes, zero patterns,
// pre-filled destinations and the row sub-ranges the parallel path
// passes, each shipped kernel must reproduce the reference loop's
// result bit for bit. A reordered reduction shows up here as a last-bit
// difference; parallel_test.go, which compares a kernel with itself,
// cannot see one.
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const shapesPerKernel = 160
	for _, kc := range kernelCases {
		var classes [4][4]int
		for s := 0; s < shapesPerKernel; s++ {
			m := oracleDim(rng, 8)
			k := oracleDim(rng, blockK)
			n := oracleDim(rng, blockJ)
			if s%4 != 0 && n > 64 {
				n = oracleDim(rng, blockK) // keep most cases small; still straddles 64
			}
			classes[k%4][n%4]++
			pattern := zeroPatterns[s%len(zeroPatterns)]
			a, b := kc.operands(m, k, n)
			fillPattern(a, pattern, rng)
			b.Randomize(rng, 1)
			want, got := New(m, n), New(m, n)
			if s%2 == 1 { // the Acc forms: a destination that already holds values
				want.Randomize(rng, 1)
				copy(got.Data, want.Data)
			}
			what := fmt.Sprintf("%s %dx%dx%d %s", kc.name, m, k, n, pattern)
			kc.ref(want, a, b, 0, m)
			// The shipped kernel runs over a random partition of the rows,
			// as parallelFor would hand them out.
			for i0 := 0; i0 < m; {
				i1 := i0 + 1 + rng.Intn(m-i0)
				kc.new(got, a, b, i0, i1)
				i0 = i1
			}
			requireSameBits(t, what, want, got)
		}
		for kr, row := range classes {
			for nr, count := range row {
				if count == 0 {
					t.Errorf("%s: no shape with inner ≡ %d and columns ≡ %d (mod 4)", kc.name, kr, nr)
				}
			}
		}
	}
}

// TestKernelsMatchReferenceBitwiseSpecialValues pins the zero-skip
// contract: in a·b and aᵀ·b a zero multiplier contributes nothing, so
// 0·Inf and 0·NaN leave the output finite and a −0 destination under an
// all-zero multiplier row keeps its sign; a·bᵀ multiplies everything,
// so 0·Inf poisons the cell and −0 + (+0) becomes +0.
func TestKernelsMatchReferenceBitwiseSpecialValues(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(14))
	for _, kc := range kernelCases {
		for _, k := range []int{1, 3, 4, 7, 8, 66} {
			const m, n = 3, 6
			a, b := kc.operands(m, k, n)
			a.Randomize(rng, 1)
			b.Randomize(rng, 1)
			// Output row 0 sees only zero multipliers; row 1 sees zeros
			// exactly where b holds Inf or NaN.
			zeroAt := func(row, kk int) {
				if kc.name == "aTb" {
					a.Data[kk*m+row] = 0
				} else {
					a.Data[row*k+kk] = 0
				}
			}
			for kk := 0; kk < k; kk++ {
				zeroAt(0, kk)
			}
			for kk := 0; kk < k; kk += 2 {
				zeroAt(1, kk)
				v := inf
				if kk%4 == 2 {
					v = nan
				}
				if kc.name == "abT" {
					b.Data[2*k+kk] = v // column 2 of the output
				} else {
					b.Data[kk*n+2] = v
				}
			}
			want, got := New(m, n), New(m, n)
			want.Data[0], got.Data[0] = negZero, negZero
			kc.ref(want, a, b, 0, m)
			kc.new(got, a, b, 0, m)
			what := fmt.Sprintf("%s special values k=%d", kc.name, k)
			requireSameBits(t, what, want, got)
			poisoned := got.Data[1*n+2] != got.Data[1*n+2]
			keptSign := math.Signbit(got.Data[0])
			if kc.skipZero && (poisoned || !keptSign) {
				t.Errorf("%s: zero multiplier not skipped (0·Inf poisoned: %v, −0 kept: %v)", what, poisoned, keptSign)
			}
			if !kc.skipZero && (!poisoned || keptSign) {
				t.Errorf("%s: zero multiplier skipped (0·Inf poisoned: %v, −0 kept: %v)", what, poisoned, keptSign)
			}
		}
	}
}

// refAxpy is Axpy as it stood before the four-element unroll: the
// reference for both Axpy and (applied four times) Axpy4.
func refAxpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// TestAxpyMatchesReferenceBitwise covers every remainder of the length
// mod 4 and the values a skipped multiply would treat differently: a
// zero alpha still multiplies, so 0·Inf poisons y in Axpy and in Axpy4.
func TestAxpyMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	draw := func(n int, special bool) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
			if special && rng.Intn(4) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
		return v
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 1023} {
		for _, special := range []bool{false, true} {
			var x [4][]float64
			for i := range x {
				x[i] = draw(n, special)
			}
			a := draw(4, special)
			y := draw(n, special)
			want, got := append([]float64(nil), y...), append([]float64(nil), y...)
			refAxpy(a[0], x[0], want)
			Axpy(a[0], x[0], got)
			what := fmt.Sprintf("axpy n=%d special=%v", n, special)
			requireSameBits(t, what, FromSlice(1, n, want), FromSlice(1, n, got))

			want, got = append([]float64(nil), y...), append([]float64(nil), y...)
			for i := range x {
				refAxpy(a[i], x[i], want)
			}
			Axpy4(a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3], got)
			requireSameBits(t, "axpy4"+what[4:], FromSlice(1, n, want), FromSlice(1, n, got))
		}
	}
	y := []float64{1, 2, 3, 4, 5}
	inf := []float64{math.Inf(1), 0, 0, 0, math.Inf(-1)}
	Axpy(0, inf, y)
	if y[0] == y[0] || y[4] == y[4] || y[1] != 2 {
		t.Fatalf("Axpy skipped a zero multiplier: %v", y)
	}
	y = []float64{1, 2, 3, 4, 5}
	Axpy4(1, 1, 0, 1, y, y, inf, y, y)
	if y[0] == y[0] || y[4] == y[4] {
		t.Fatalf("Axpy4 skipped a zero multiplier: %v", y)
	}
}
