package tensor

// useAVX2 selects the AVX2 kernels of simd_amd64.s under mulAddRows,
// Axpy and Axpy4. It is set once, here, from CPUID, and is false in race
// builds (raceEnabled); tests clear it to run the pure-Go kernels on the
// same machine. Both paths give the same bits: each lane does the
// rounded multiply and then the rounded add that the scalar loop does
// (VMULPD + VADDPD, never a fused VFMADD), in the same ascending order,
// with the same zero skips.
var useAVX2 = hasAVX2() && !raceEnabled

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// wideMultipliers is how many multipliers one mulAddRowsAVX2 call takes:
// its frame holds that many gathered (multiplier, row offset) pairs. The
// kernels' callers pass at most blockK.
const wideMultipliers = 64

// mulAddRowsWide is mulAddRows on the AVX2 kernel. It checks every row
// of bs the kernel may read against len(bs), so a short operand panics
// here rather than being read past, and hands the kernel at most
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
		n := min((len(as)-1)/astride+1, wideMultipliers)
		last := (n - 1) * bstride
		_ = bs[last : last+len(d)]
		mulAddRowsAVX2(d, as, astride, n, bs, bstride)
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

// axpyAVX2 is Axpy's loop; len(y) must be len(x).
//
//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

// axpy4AVX2 is Axpy4's loop; every x must have len(y) elements.
//
//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
