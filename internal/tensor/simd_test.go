package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withAVX2 runs f with the AVX2 kernels on (where the CPU has them) or
// off, and restores the CPUID selection afterwards. The selection is a
// package variable, so no test that uses it calls t.Parallel.
func withAVX2(on bool, f func()) {
	saved := useAVX2
	useAVX2 = on && saved
	defer func() { useAVX2 = saved }()
	f()
}

// forEachPath runs f as one subtest per kernel path this machine has:
// "go" (the portable loops) always, "avx2" where CPUID selected it.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	paths := []bool{false}
	if useAVX2 {
		paths = append(paths, true)
	}
	for _, simd := range paths {
		name := "go"
		if simd {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) { withAVX2(simd, func() { f(t) }) })
	}
}

// TestKernelsAllocateNothing: neither path allocates in a serial product
// or in Axpy4. The AVX2 kernels gather their multipliers, and build a·bᵀ's
// panel and partial sums, in their own stack frames. The a·bᵀ products
// run 9 rows (two row groups and a lone row) over an inner dimension of
// 160, three panel chunks.
func TestKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b, dst := New(9, 160), New(160, 32), New(9, 32)
	at, dt := New(9, 160), New(160, 32)
	fillPattern(a, "padded", rng)
	fillPattern(at, "padded", rng)
	b.Randomize(rng, 1)
	dt.Randomize(rng, 1)
	bt := FromSlice(32, 160, b.Data)
	x, y := b.Data[:1000], dt.Data[:1000]
	forEachPath(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"MatMulInto":       func() { MatMulInto(dst, a, b) },
			"MatMulTransAAcc":  func() { MatMulTransAAcc(dt, at, dst) },
			"MatMulTransBInto": func() { MatMulTransBInto(dst, a, bt) },
			"MatMulTransBAcc":  func() { MatMulTransBAcc(dst, at, bt) },
			"Axpy4":            func() { Axpy4(0.5, 0.25, -1, 2, x, x, x, x, y) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("%s: %v allocs per call, want 0", name, allocs)
			}
		}
	})
}

// fuzzSpecials are the values the zero-skip and multiply-everything rules
// treat differently, plus a subnormal and a value whose square
// overflows.
var fuzzSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, 1}

// FuzzKernels decodes a kernel, a shape, a zero pattern and special
// values from its input, and requires the AVX2 path, the portable path
// and the reference loop to agree bit for bit (any two NaNs equal).
//
// Input layout: kernel (ab, aTb, abT or axpy), m, k, n, a high-n bit and
// a zero pattern in the first bytes, then (position, special) byte pairs
// poked into a, b and the destination in turn.
func FuzzKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 {
			return
		}
		m, k, n := int(in[1]%12), int(in[2]%80), int(in[3])+200*int(in[4]&1)
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint16(in[4:6]))))
		pattern := zeroPatterns[int(in[5]>>1)%len(zeroPatterns)]
		pokes := in[6:]
		poke := func(v []float64, i int) bool {
			if len(v) == 0 || 2*i+1 >= len(pokes) {
				return false
			}
			v[int(pokes[2*i])*len(v)/256] = fuzzSpecials[int(pokes[2*i+1])%len(fuzzSpecials)]
			return true
		}
		if in[0]%4 == 3 {
			fuzzAxpy(t, n, rng, pattern, poke)
			return
		}
		kc := kernelCases[in[0]%4]
		a, b := kc.operands(m, k, n)
		fillPattern(a, pattern, rng)
		b.Randomize(rng, 1)
		want := New(m, n)
		want.Randomize(rng, 1)
		for i := 0; 2*i+1 < len(pokes); i += 3 {
			poke(a.Data, i)
			poke(b.Data, i+1)
			poke(want.Data, i+2)
		}
		goPath, wide := want.Clone(), want.Clone()
		kc.ref(want, a, b, 0, m)
		withAVX2(false, func() { kc.new(goPath, a, b, 0, m) })
		withAVX2(true, func() { kc.new(wide, a, b, 0, m) })
		what := fmt.Sprintf("%s %dx%dx%d %s", kc.name, m, k, n, pattern)
		requireSameBits(t, what+" go", want, goPath)
		requireSameBits(t, what+" avx2", want, wide)
	})
}

// fuzzAxpy is FuzzKernels' Axpy and Axpy4 case over n elements.
func fuzzAxpy(t *testing.T, n int, rng *rand.Rand, pattern string, poke func([]float64, int) bool) {
	src := New(5, n)
	fillPattern(src, pattern, rng)
	var xs [4][]float64
	for i := range xs {
		xs[i] = src.Row(i)
	}
	alpha := []float64{rng.NormFloat64(), 0, rng.NormFloat64(), rng.NormFloat64()}
	for i := 0; poke(src.Data, i); i += 2 {
		poke(alpha, i+1)
	}
	want := append([]float64(nil), src.Row(4)...)
	refAxpy(alpha[0], xs[0], want)
	for _, simd := range []bool{false, true} {
		got := append([]float64(nil), src.Row(4)...)
		withAVX2(simd, func() { Axpy(alpha[0], xs[0], got) })
		requireSameBits(t, fmt.Sprintf("axpy n=%d avx2=%v", n, simd), FromSlice(1, n, want), FromSlice(1, n, got))
	}
	for i := 1; i < 4; i++ {
		refAxpy(alpha[i], xs[i], want)
	}
	for _, simd := range []bool{false, true} {
		got := append([]float64(nil), src.Row(4)...)
		withAVX2(simd, func() { Axpy4(alpha[0], alpha[1], alpha[2], alpha[3], xs[0], xs[1], xs[2], xs[3], got) })
		requireSameBits(t, fmt.Sprintf("axpy4 n=%d avx2=%v", n, simd), FromSlice(1, n, want), FromSlice(1, n, got))
	}
}
