package tensor

// useAVX2 selects the AVX2 kernels of simd_amd64.s under mulAddRows,
// matMulTransBRange, Axpy, Axpy4 and AdamStep, and useAVX512 the AVX-512
// tier on top of them: the ZMM mulAddRows and the eight-row a·bᵀ panel,
// chosen inside the same Go wrappers. Both are set once, here, from
// CPUID, and are false in race builds (raceEnabled); tests clear them to
// run the AVX2 or the pure-Go kernels on the same machine. Every path
// gives the same bits: each lane does the rounded multiply and then the
// rounded add that the scalar loop does (VMULPD + VADDPD, never a fused
// VFMADD), in the same ascending order, with the same zero skips.
//
// useFMA adds, on top of useAVX2, the CPU test math makes before its own
// fused exp (AVX and FMA): the kernels under GELU, GELUGrad and Exp fuse
// where that exp does, and run only where math.Exp takes it.
var (
	useAVX2   = hasAVX2() && !raceEnabled
	useAVX512 = useAVX2 && hasAVX512()
	useFMA    = useAVX2 && hasFMA()
)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, with XCR0's SSE and AVX
// state bits set).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// hasAVX512 reports, on a CPU that passed hasAVX2, whether it has
// AVX-512F and the OS saves the opmask and ZMM state (XCR0 bits 5–7).
func hasAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe0 != 0xe0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}

// hasFMA reports, on a CPU that passed hasAVX2, whether it has FMA
// (CPUID leaf 1 ECX bit 12).
func hasFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// wideMultipliers is how many multipliers one mulAddRows kernel call
// takes: its frame holds that many gathered (multiplier, row offset)
// pairs. The kernels' callers pass at most blockK.
const wideMultipliers = 64

// mulAddRowsWide is mulAddRows on the SIMD kernels: the ZMM one where
// useAVX512 is set, the AVX2 one otherwise. It checks every row of bs
// the kernel may read against len(bs), so a short operand panics here
// rather than being read past, and hands the kernel at most
// wideMultipliers multipliers at a time, in order.
func mulAddRowsWide(d, as []float64, astride int, bs []float64, bstride int) {
	if len(d) == 0 || len(as) == 0 {
		return
	}
	if astride < 1 {
		panic("tensor: mulAddRows multiplier stride < 1")
	}
	bs = bs[:len(bs):len(bs)] // slicing below checks len, not cap
	if len(as) <= astride {
		// One multiplier, as in a one-row aᵀ·b (a per-sample head
		// gradient): Axpy's kernel does the same d += a·b without the
		// gather and the division below.
		if as[0] != 0 {
			axpyAVX2(as[0], bs[:len(d)], d)
		}
		return
	}
	for {
		n := len(as)
		if astride > 1 {
			n = (n-1)/astride + 1
		}
		n = min(n, wideMultipliers)
		last := (n - 1) * bstride
		_ = bs[last : last+len(d)]
		if useAVX512 {
			mulAddRowsAVX512(d, as, astride, n, bs, bstride)
		} else {
			mulAddRowsAVX2(d, as, astride, n, bs, bstride)
		}
		if n*astride >= len(as) {
			return
		}
		as, bs = as[n*astride:], bs[n*bstride:]
	}
}

// mulAddRowsAVX2 adds as[t·astride] · bs[t·bstride:][:len(d)] into d for
// t = 0 … n−1, skipping ±0 multipliers. It needs 1 ≤ n ≤
// wideMultipliers and every row it may read inside bs.
//
//go:noescape
func mulAddRowsAVX2(d, as []float64, astride, n int, bs []float64, bstride int)

// mulAddRowsAVX512 is mulAddRowsAVX2 eight lanes wide, with the same
// contract.
//
//go:noescape
func mulAddRowsAVX512(d, as []float64, astride, n int, bs []float64, bstride int)

// mulAddRows8Wide adds eight consecutive output rows of aᵀ·b on the ZMM
// kernel: row r of d, d[r·dstride:][:width], gets as[t·astride+r] ·
// bs[t·bstride:][:width] for t = 0 … n−1, in ascending t, skipping ±0
// multipliers: per row the operations of mulAddRows. It needs 1 ≤ n ≤
// wideMultipliers and astride ≥ 8, and checks the last element the
// kernel reads of every operand, so a short one panics here.
func mulAddRows8Wide(d []float64, dstride, width int, as []float64, astride, n int, bs []float64, bstride int) {
	if n < 1 || n > wideMultipliers || astride < 8 {
		panic("tensor: mulAddRows8 needs 1 ≤ n ≤ 64 multipliers at a stride ≥ 8")
	}
	_ = d[7*dstride+width-1] // indexing checks len; slicing would check cap
	_ = as[(n-1)*astride+7]
	_ = bs[(n-1)*bstride+width-1]
	mulAddRows8AVX512(d, dstride, width, as, astride, n, bs, bstride)
}

//go:noescape
func mulAddRows8AVX512(d []float64, dstride, width int, as []float64, astride, n int, bs []float64, bstride int)

// transBRows is how many rows of a one abTAVX2 call takes, the four
// lanes of its panel, and transBRows512 how many one abTAVX512 call
// takes, the eight lanes of its.
const (
	transBRows    = 4
	transBRows512 = 8
)

// matMulTransBWide is matMulTransBRange on the SIMD kernels. The panel
// kernel transposes a, the small operand (9 token rows against 32–160
// rows of b), into a panel four rows wide (abTAVX2) or eight (abTAVX512,
// where useAVX512 is set), so the copy costs one element per len(b)
// multiply-adds. It walks b in blockK-row panels as the Go loop does (on
// the AVX-512 path in one panel when k ≤ blockK, so a's panel is built
// once per group of rows) and hands the kernel a panel's worth of rows
// of a at a time. A lone last row (a one-row product, or the ninth of
// nine) would fill one lane of the panel, so it goes to abTRowAVX2
// instead; an empty inner dimension (every cell then adds +0) goes to
// the Go loop. The slicing below checks every operand the kernels read
// or write.
func matMulTransBWide(dst, a, b *Matrix, i0, i1 int) {
	k, n := a.Cols, b.Rows
	if k == 0 {
		matMulTransBGo(dst, a, b, i0, i1)
		return
	}
	group := transBRows
	if useAVX512 {
		group = transBRows512
	}
	if (i1-i0)%group == 1 {
		i1--
		abTRowAVX2(dst.Data[i1*n:(i1+1)*n], a.Data[i1*k:(i1+1)*k], b.Data[:n*k], k)
	}
	panel := blockK
	if useAVX512 && k <= blockK {
		panel = n // one chunk: abTAVX512 keeps no partial sums, so it takes every row of b
	}
	for p0 := 0; p0 < n; p0 += panel {
		p1 := min(p0+panel, n)
		bs := b.Data[p0*k : p1*k]
		for i := i0; i < i1; i += group {
			rows := min(group, i1-i)
			d, as := dst.Data[i*n+p0:(i+rows-1)*n+p1], a.Data[i*k:(i+rows)*k]
			if useAVX512 {
				abTAVX512(d, n, as, rows, bs, p1-p0, k)
			} else {
				abTAVX2(d, n, as, rows, bs, p1-p0, k)
			}
		}
	}
}

// abTAVX2 adds a·bᵀ into d for 2 ≤ rows ≤ 4 rows of a and 1 ≤ ncols ≤
// blockK rows of b, both k ≥ 1 doubles long; row r of the product goes
// to d[r·dstride:][:ncols]. Each cell sums from +0 in ascending k and
// is added to d once.
//
//go:noescape
func abTAVX2(d []float64, dstride int, a []float64, rows int, b []float64, ncols, k int)

// abTAVX512 is abTAVX2 for 2 ≤ rows ≤ 8 rows of a, with the same
// contract otherwise, except that with k ≤ blockK it takes any ncols ≥ 1.
//
//go:noescape
func abTAVX512(d []float64, dstride int, a []float64, rows int, b []float64, ncols, k int)

// abTRowAVX2 adds one row of a·bᵀ into d: d[c] += the sum over
// ascending k of a[k]·b[c·k+k], from +0, for every c < len(d). It needs
// k ≥ 1, len(a) ≥ k and len(b) ≥ len(d)·k.
//
//go:noescape
func abTRowAVX2(d, a, b []float64, k int)

// axpyAVX2 is Axpy's loop; len(y) must be len(x).
//
//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

// axpy4AVX2 is Axpy4's loop; every x must have len(y) elements.
//
//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

// adamAVX2 is AdamStep's loop over the first len(w) &^ 3 elements, four
// lanes at a time; the Go loop does the rest. Every slice must have at
// least that many elements. c1 and c2 are 1−beta1 and 1−beta2.
//
//go:noescape
func adamAVX2(w, g, m, v []float64, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)

// expAVX2, geluAVX2 and geluGradAVX2 are the loops of Exp, GELU and
// GELUGrad from element i in blocks of four (transcendental_amd64.s).
// Each returns len(x), or the start of a block it left unstored for the
// scalar loop. Every other slice must be as long as x.
//
//go:noescape
func expAVX2(dst, x []float64, i int) int

//go:noescape
func geluAVX2(y, cdf, x []float64, i int) int

//go:noescape
func geluGradAVX2(dx, dy, x, cdf []float64, i int) int
