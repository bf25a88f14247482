package tensor

import "fmt"

// Cache block sizes, in float64 elements. A blockK×blockJ panel of b
// (128 KiB) sits comfortably in L2 while a blockJ-wide dst row segment
// (2 KiB) stays in L1 across the k sweep. Blocking only reorders which
// (i, j) cells are visited when; every per-element reduction still runs
// in ascending-k order, so blocked, serial, and parallel kernels produce
// bitwise-identical results.
const (
	blockK = 64
	blockJ = 256
)

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage.
func MatMulInto(dst, a, b *Matrix) {
	checkMatMul("matmul", dst, a.Rows, b.Cols, a.Cols, b.Rows)
	dst.Zero()
	matMulAcc(dst, a, b)
}

// MatMulAcc computes dst += a·b, reusing dst's storage.
func MatMulAcc(dst, a, b *Matrix) {
	checkMatMul("matmul", dst, a.Rows, b.Cols, a.Cols, b.Rows)
	matMulAcc(dst, a, b)
}

func matMulAcc(dst, a, b *Matrix) {
	if a.Rows*a.Cols*b.Cols >= minParallelFlops {
		parallelFor(a.Rows, func(i0, i1 int) { matMulRange(dst, a, b, i0, i1) })
		return
	}
	matMulRange(dst, a, b, 0, a.Rows)
}

// matMulRange accumulates rows [i0, i1) of a·b into dst.
func matMulRange(dst, a, b *Matrix, i0, i1 int) {
	ac, bc := a.Cols, b.Cols
	for k0 := 0; k0 < ac; k0 += blockK {
		k1 := min(k0+blockK, ac)
		for j0 := 0; j0 < bc; j0 += blockJ {
			j1 := min(j0+blockJ, bc)
			for i := i0; i < i1; i++ {
				mulAddRows(dst.Data[i*bc+j0:i*bc+j1], a.Data[i*ac+k0:i*ac+k1], 1, b.Data[k0*bc+j0:], bc)
			}
		}
	}
}

// mulAddRows is the inner kernel of a·b and aᵀ·b: for t = 0, 1, … it
// adds as[t·astride] · bs[t·bstride : t·bstride+len(d)] into d, skipping
// zero multipliers (so 0·Inf contributes nothing and a −0 in d keeps its
// sign). It takes the next four non-zero multipliers at a time and
// applies them in one pass over d: the same rounded multiply-adds in the
// same ascending-t order per element as four separate passes, with one
// load and one store of d instead of four.
func mulAddRows(d, as []float64, astride int, bs []float64, bstride int) {
	var mul [4]float64
	var off [4]int
	g := 0
	for t := 0; t*astride < len(as); t++ {
		av := as[t*astride]
		if av == 0 {
			continue
		}
		mul[g&3], off[g&3] = av, t*bstride
		if g++; g < 4 {
			continue
		}
		g = 0
		a0, a1, a2, a3 := mul[0], mul[1], mul[2], mul[3]
		b0 := bs[off[0]:][:len(d)]
		b1 := bs[off[1]:][:len(d)]
		b2 := bs[off[2]:][:len(d)]
		b3 := bs[off[3]:][:len(d)]
		for j, v := range d {
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
			d[j] = v
		}
	}
	for r := 0; r < g; r++ {
		av := mul[r]
		for j, bv := range bs[off[r]:][:len(d)] {
			d[j] += av * bv
		}
	}
}

// MatMulTransB returns a·bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ, reusing dst's storage.
func MatMulTransBInto(dst, a, b *Matrix) {
	checkMatMul("matmul-transB", dst, a.Rows, b.Rows, a.Cols, b.Cols)
	dst.Zero()
	matMulTransBAcc(dst, a, b)
}

// MatMulTransBAcc computes dst += a·bᵀ, reusing dst's storage.
func MatMulTransBAcc(dst, a, b *Matrix) {
	checkMatMul("matmul-transB", dst, a.Rows, b.Rows, a.Cols, b.Cols)
	matMulTransBAcc(dst, a, b)
}

func matMulTransBAcc(dst, a, b *Matrix) {
	if a.Rows*b.Rows*a.Cols >= minParallelFlops {
		parallelFor(a.Rows, func(i0, i1 int) { matMulTransBRange(dst, a, b, i0, i1) })
		return
	}
	matMulTransBRange(dst, a, b, 0, a.Rows)
}

// matMulTransBRange accumulates rows [i0, i1) of a·bᵀ into dst. The
// rows of b are walked in panels so the panel stays cached across the
// rows of a in this range. Four output cells are reduced at once: each
// still sums in ascending k from zero with its own accumulator, but the
// four add chains overlap in the pipeline and a's element is loaded once
// for four rows of b. Nothing is skipped: a zero in a still multiplies.
func matMulTransBRange(dst, a, b *Matrix, i0, i1 int) {
	ac, br := a.Cols, b.Rows
	for p0 := 0; p0 < br; p0 += blockK {
		p1 := min(p0+blockK, br)
		for i := i0; i < i1; i++ {
			arow := a.Data[i*ac : (i+1)*ac]
			drow := dst.Data[i*br : (i+1)*br]
			j := p0
			for ; j+4 <= p1; j += 4 {
				b0 := b.Data[j*ac:][:len(arow)]
				b1 := b.Data[(j+1)*ac:][:len(arow)]
				b2 := b.Data[(j+2)*ac:][:len(arow)]
				b3 := b.Data[(j+3)*ac:][:len(arow)]
				var s0, s1, s2, s3 float64
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				d := drow[j : j+4 : j+4]
				d[0] += s0
				d[1] += s1
				d[2] += s2
				d[3] += s3
			}
			for ; j < p1; j++ {
				var s float64
				for k, bv := range b.Data[j*ac:][:len(arow)] {
					s += arow[k] * bv
				}
				drow[j] += s
			}
		}
	}
}

// MatMulTransA returns aᵀ·b.
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b, reusing dst's storage.
func MatMulTransAInto(dst, a, b *Matrix) {
	checkMatMul("matmul-transA", dst, a.Cols, b.Cols, a.Rows, b.Rows)
	dst.Zero()
	matMulTransAAcc(dst, a, b)
}

// MatMulTransAAcc computes dst += aᵀ·b, reusing dst's storage. It is
// the allocation-free form of the gradient accumulations in internal/nn
// (dW += xᵀ·dy).
func MatMulTransAAcc(dst, a, b *Matrix) {
	checkMatMul("matmul-transA", dst, a.Cols, b.Cols, a.Rows, b.Rows)
	matMulTransAAcc(dst, a, b)
}

func matMulTransAAcc(dst, a, b *Matrix) {
	if a.Rows*a.Cols*b.Cols >= minParallelFlops {
		parallelFor(a.Cols, func(i0, i1 int) { matMulTransARange(dst, a, b, i0, i1) })
		return
	}
	matMulTransARange(dst, a, b, 0, a.Cols)
}

// matMulTransARange accumulates rows [i0, i1) of aᵀ·b into dst (row i
// of the output corresponds to column i of a). An output row is visited
// once per four rows of a, not once per row: the multipliers are read
// down a's column with stride a.Cols.
func matMulTransARange(dst, a, b *Matrix, i0, i1 int) {
	ar, ac, bc := a.Rows, a.Cols, b.Cols
	for k0 := 0; k0 < ar; k0 += blockK {
		k1 := min(k0+blockK, ar)
		for j0 := 0; j0 < bc; j0 += blockJ {
			j1 := min(j0+blockJ, bc)
			for i := i0; i < i1; i++ {
				mulAddRows(dst.Data[i*bc+j0:i*bc+j1], a.Data[k0*ac+i:(k1-1)*ac+i+1], ac, b.Data[k0*bc+j0:], bc)
			}
		}
	}
}

// checkMatMul panics unless dst is wantR×wantC and the inner dimensions
// innerA and innerB agree.
func checkMatMul(op string, dst *Matrix, wantR, wantC, innerA, innerB int) {
	if innerA != innerB {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", op, innerA, innerB))
	}
	if dst.Rows != wantR || dst.Cols != wantC {
		panic(fmt.Sprintf("tensor: %s dst %dx%d want %dx%d", op, dst.Rows, dst.Cols, wantR, wantC))
	}
}
