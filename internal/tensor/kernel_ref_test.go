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

// foldShapes are the weight-gradient products aᵀ·b that nn's
// data-parallel fold stacks, as output rows, rows per sample and output
// columns: a 32×32 projection and the MLP's two weights at sequence 9,
// and the classifier head (one row, 100 classes). The serial backward
// pass makes one product per sample; the fold makes one over foldSamples
// samples' rows.
var foldShapes = [][3]int{{32, 9, 32}, {32, 9, 64}, {64, 9, 32}, {32, 1, 100}}

const foldSamples = 8

// headerFoldShapes are the weight gradients a device header's minibatch
// pass (nn.Pass) folds, headerFoldChunk samples at a time: its
// convolutions' colsᵀ·dy at kernel 1, 3 and 5 (9 token rows a sample)
// and its classifier's FC1 and FC2 xᵀ·dy (one row a sample).
var headerFoldShapes = [][3]int{{32, 9, 32}, {96, 9, 32}, {160, 9, 32}, {64, 1, 32}, {32, 1, 100}}

const headerFoldChunk = 4

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
// pre-filled destinations and random row sub-ranges, each shipped
// kernel must reproduce the reference loop's result bit for bit. A
// reordered reduction shows up here as a last-bit difference. It runs
// once per kernel path (forEachPath).
func TestKernelsMatchReferenceBitwise(t *testing.T) { forEachPath(t, kernelsMatchReference) }

func kernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const shapesPerKernel = 160
	for _, kc := range kernelCases {
		var classes [4][4]int
		var rowClasses [4]int
		var rowClasses8 [8]int
		var loneRows [4][4]int
		chunked := 0
		for s := 0; s < shapesPerKernel; s++ {
			m := oracleDim(rng, 8)
			k := oracleDim(rng, blockK)
			n := oracleDim(rng, blockJ)
			if s%4 != 0 && n > 64 {
				n = oracleDim(rng, blockK) // keep most cases small; still straddles 64
			}
			classes[k%4][n%4]++
			if m > 4 {
				rowClasses[m%4]++
			}
			if k > blockK {
				chunked++
			}
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
			// The shipped kernel runs over all rows at once, or over a
			// random partition of them.
			for i0 := 0; i0 < m; {
				i1 := m
				if s%4 != 2 {
					i1 = i0 + 1 + rng.Intn(m-i0)
				}
				if (i1-i0)%4 == 1 && k > 0 {
					loneRows[k%4][n%4]++
				}
				if r := i1 - i0; r > 8 && k > 0 {
					rowClasses8[r%8]++
				}
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
		// a·bᵀ's AVX2 kernels take a in groups of four rows (eight on the
		// AVX-512 path), the inner dimension in panel chunks of blockK,
		// and a lone row (a range of 4q+1 rows, or 8q+1) on a kernel of
		// its own that walks k four at a time.
		for kr, row := range loneRows {
			for nr, count := range row {
				if count == 0 {
					t.Errorf("%s: no lone row with inner ≡ %d and columns ≡ %d (mod 4)", kc.name, kr, nr)
				}
			}
		}
		for r, count := range rowClasses {
			if count == 0 {
				t.Errorf("%s: no shape past one row group with rows ≡ %d (mod 4)", kc.name, r)
			}
		}
		for r, count := range rowClasses8 {
			if count == 0 {
				t.Errorf("%s: no row range past eight rows with rows ≡ %d (mod 8)", kc.name, r)
			}
		}
		if chunked == 0 {
			t.Errorf("%s: no shape with an inner dimension past %d", kc.name, blockK)
		}
	}
	// The fold's stacked products: the reference loop over all rows, the
	// shipped kernel over all rows, and the shipped kernel once per
	// sample's rows in order (what the serial backward pass accumulates)
	// agree bit for bit.
	for _, sh := range foldShapes {
		m, rows, n := sh[0], sh[1], sh[2]
		k := foldSamples * rows
		for _, pattern := range zeroPatterns {
			a, b := New(k, m), New(k, n)
			fillPattern(a, pattern, rng)
			b.Randomize(rng, 1)
			want := New(m, n)
			want.Randomize(rng, 1)
			stacked, perSample := want.Clone(), want.Clone()
			refMatMulTransARange(want, a, b, 0, m)
			MatMulTransAAcc(stacked, a, b)
			for s := 0; s < foldSamples; s++ {
				as := FromSlice(rows, m, a.Data[s*rows*m:(s+1)*rows*m])
				bs := FromSlice(rows, n, b.Data[s*rows*n:(s+1)*rows*n])
				MatMulTransAAcc(perSample, as, bs)
			}
			what := fmt.Sprintf("fold %dx%dx%d %s", m, k, n, pattern)
			requireSameBits(t, what+" stacked", want, stacked)
			requireSameBits(t, what+" per sample", want, perSample)
		}
	}
}

// TestHeaderFoldMatchesPerSample: on every kernel path, a 10-sample
// minibatch folded at the header's shapes in chunks of headerFoldChunk
// (4 + 4 + 2 samples, one MatMulTransAAcc and one SumRowsInto each) adds
// the same bits to the weight and bias gradients as one call per sample.
// The operands carry what a masked header feeds the fold: im2col
// padding, zero input channels in every tap and zero dy columns.
func TestHeaderFoldMatchesPerSample(t *testing.T) { forEachPath(t, headerFoldMatchesPerSample) }

func headerFoldMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const samples = 10
	for _, sh := range headerFoldShapes {
		m, rows, n := sh[0], sh[1], sh[2]
		a, b := New(samples*rows, m), New(samples*rows, n)
		fillPattern(a, "padded", rng)
		b.Randomize(rng, 1)
		for r := 0; r < a.Rows; r++ {
			for c := 3; c < m; c += 32 { // input channel 3 in every tap block
				a.Data[r*m+c] = 0
			}
			for _, c := range []int{1, n - 1} {
				b.Data[r*n+c] = 0
			}
		}
		w, bias := New(m, n), New(1, n)
		w.Randomize(rng, 1)
		bias.Randomize(rng, 1)
		wStacked, wSerial := w.Clone(), w.Clone()
		bStacked, bSerial := bias.Clone(), bias.Clone()
		for s := 0; s < samples; s++ {
			as := FromSlice(rows, m, a.Data[s*rows*m:(s+1)*rows*m])
			bs := FromSlice(rows, n, b.Data[s*rows*n:(s+1)*rows*n])
			MatMulTransAAcc(wSerial, as, bs)
			bs.SumRowsInto(bSerial.Data)
		}
		for s0 := 0; s0 < samples; s0 += headerFoldChunk {
			s1 := min(s0+headerFoldChunk, samples)
			as := FromSlice((s1-s0)*rows, m, a.Data[s0*rows*m:s1*rows*m])
			bs := FromSlice((s1-s0)*rows, n, b.Data[s0*rows*n:s1*rows*n])
			MatMulTransAAcc(wStacked, as, bs)
			bs.SumRowsInto(bStacked.Data)
		}
		what := fmt.Sprintf("header fold %dx%dx%d", m, rows, n)
		requireSameBits(t, what+" weight", wSerial, wStacked)
		requireSameBits(t, what+" bias", bSerial, bStacked)
	}
}

// TestKernelsMatchReferenceBitwiseSpecialValues pins the zero-skip
// contract on every kernel path: in a·b and aᵀ·b a ±0 multiplier
// contributes nothing, so 0·Inf and 0·NaN leave the output finite and a
// −0 destination under an all-zero multiplier row keeps its sign, while
// a NaN or ±Inf multiplier is multiplied like any other and poisons its
// output row; a·bᵀ multiplies everything, so 0·Inf poisons the cell and
// −0 + (+0) becomes +0. The 0·Inf cells sit in the first group of four
// rows and columns and past it: in the last row (on the AVX2 path a·bᵀ's
// lone row at five rows and nine, its kernel's three-row tail at seven;
// on the AVX-512 path a five- and a seven-row panel and, at nine, the
// lone row after a full one) and the last column, at six columns (a
// four-column tile and two lone columns) and at thirteen (an eight-, a
// four- and a one-column tile).
func TestKernelsMatchReferenceBitwiseSpecialValues(t *testing.T) {
	forEachPath(t, kernelsMatchReferenceSpecialValues)
}

func kernelsMatchReferenceSpecialValues(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(14))
	for _, kc := range kernelCases {
		for _, m := range []int{5, 7, 9} {
			for _, nk := range [][2]int{{6, 1}, {6, 3}, {6, 4}, {6, 7}, {6, 8}, {6, 66}, {13, 5}, {13, 66}} {
				n, k := nk[0], nk[1]
				a, b := kc.operands(m, k, n)
				a.Randomize(rng, 1)
				b.Randomize(rng, 1)
				setA := func(row, kk int, v float64) {
					if kc.name == "aTb" {
						a.Data[kk*m+row] = v
					} else {
						a.Data[row*k+kk] = v
					}
				}
				// Output row 0 sees only ±0 multipliers; rows 1 and m−1
				// see ±0 exactly where b holds Inf or NaN for output
				// columns 2 and n−1 (row 1 −0 where b holds +Inf, row
				// m−1 −0 where b holds NaN). Row 2 has a
				// NaN multiplier and row 3 an Inf and a −Inf one, each at
				// the last inner index, past any group of four.
				for kk := 0; kk < k; kk++ {
					setA(0, kk, []float64{0, negZero}[kk%2])
				}
				for kk := 0; kk < k; kk += 2 {
					setA(1, kk, []float64{negZero, 0}[kk%4/2])
					setA(m-1, kk, []float64{0, negZero}[kk%4/2])
					v := inf
					if kk%4 == 2 {
						v = nan
					}
					for _, col := range []int{2, n - 1} {
						if kc.name == "abT" {
							b.Data[col*k+kk] = v
						} else {
							b.Data[kk*n+col] = v
						}
					}
				}
				setA(2, k-1, nan)
				setA(3, 0, inf)
				setA(3, k-1, -inf)
				want, got := New(m, n), New(m, n)
				want.Data[0], got.Data[0] = negZero, negZero
				kc.ref(want, a, b, 0, m)
				kc.new(got, a, b, 0, m)
				what := fmt.Sprintf("%s special values %dx%dx%d", kc.name, m, k, n)
				requireSameBits(t, what, want, got)
				poisoned := 0
				for _, row := range []int{1, m - 1} {
					for _, col := range []int{2, n - 1} {
						if v := got.Data[row*n+col]; v != v {
							poisoned++
						}
					}
				}
				keptSign := math.Signbit(got.Data[0])
				if kc.skipZero && (poisoned > 0 || !keptSign) {
					t.Errorf("%s: zero multiplier not skipped (0·Inf cells poisoned: %d of 4, −0 kept: %v)", what, poisoned, keptSign)
				}
				if !kc.skipZero && (poisoned < 4 || keptSign) {
					t.Errorf("%s: zero multiplier skipped (0·Inf cells poisoned: %d of 4, −0 kept: %v)", what, poisoned, keptSign)
				}
				for j := 0; j < n; j++ {
					if v := got.Data[2*n+j]; v == v {
						t.Errorf("%s: NaN multiplier skipped: row 2 col %d is %v", what, j, v)
					}
					if v := got.Data[3*n+j]; !math.IsInf(v, 0) && v == v {
						t.Errorf("%s: Inf multiplier skipped: row 3 col %d is %v", what, j, v)
					}
				}
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
// It runs once per kernel path.
func TestAxpyMatchesReferenceBitwise(t *testing.T) { forEachPath(t, axpyMatchesReference) }

func axpyMatchesReference(t *testing.T) {
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

// refAdam is internal/nn's Adam update loop as it stood before AdamStep:
// the reference for AdamStep on every path.
func refAdam(w, g, m, v []float64, beta1, beta2, bc1, bc2, lr, eps float64) {
	for i := range g {
		m[i] = beta1*m[i] + (1-beta1)*g[i]
		v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

// TestAdamStepMatchesReferenceBitwise runs three Adam steps at every
// length from 0 to 37 (every remainder of the four-lane kernel, and its
// Go tail) on gradients that carry ±0, subnormals and values whose
// square overflows, and requires the parameters and both moments to
// match refAdam bit for bit. It runs once per kernel path; a step makes
// no allocation.
func TestAdamStepMatchesReferenceBitwise(t *testing.T) { forEachPath(t, adamMatchesReference) }

func adamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-320, 1e-160, 1e200, -1e300}
	const beta1, beta2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
	for n := 0; n <= 37; n++ {
		want := New(4, n) // w, g, m, v
		want.Randomize(rng, 1)
		for i, x := range want.Row(3) {
			want.Row(3)[i] = x * x
		}
		got := want.Clone()
		for step := 1; step <= 3; step++ {
			for i := range want.Row(1) {
				g := rng.NormFloat64()
				if rng.Intn(3) == 0 {
					g = specials[rng.Intn(len(specials))]
				}
				want.Row(1)[i], got.Row(1)[i] = g, g
			}
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			refAdam(want.Row(0), want.Row(1), want.Row(2), want.Row(3), beta1, beta2, bc1, bc2, lr, eps)
			AdamStep(got.Row(0), got.Row(1), got.Row(2), got.Row(3), beta1, beta2, bc1, bc2, lr, eps)
			requireSameBits(t, fmt.Sprintf("adam n=%d step %d", n, step), want, got)
		}
	}
	st := New(4, 37)
	st.Fill(0.5)
	if allocs := testing.AllocsPerRun(20, func() {
		AdamStep(st.Row(0), st.Row(1), st.Row(2), st.Row(3), beta1, beta2, 0.5, 0.25, lr, eps)
	}); allocs != 0 {
		t.Errorf("AdamStep: %v allocs per call, want 0", allocs)
	}
}
