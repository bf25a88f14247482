package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelPath is one kernel path: which SIMD tiers it runs.
type kernelPath struct {
	name         string
	avx2, avx512 bool
}

// kernelPaths lists the paths the CPU has: "go" (the portable
// loops) always, "avx2" (AVX-512 off) where CPUID selected AVX2, and
// "avx512" where it selected AVX-512 too.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{"go", false, false}}
	if useAVX2 {
		paths = append(paths, kernelPath{"avx2", true, false})
	}
	if useAVX512 {
		paths = append(paths, kernelPath{"avx512", true, true})
	}
	return paths
}

// withPath runs f on kernel path p and restores the CPUID selection
// afterwards. The selection is a pair of package variables, so no test
// that uses it calls t.Parallel.
func withPath(p kernelPath, f func()) {
	saved2, saved512 := useAVX2, useAVX512
	useAVX2, useAVX512 = p.avx2, p.avx512
	defer func() { useAVX2, useAVX512 = saved2, saved512 }()
	f()
}

// forEachPath runs f as one subtest per kernel path the CPU has.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) { withPath(p, func() { f(t) }) })
	}
}

// TestKernelsAllocateNothing: no path allocates in a serial product, in
// Axpy4 or in AdamStep. The SIMD kernels gather their multipliers, and
// build a·bᵀ's panel and partial sums, in their own stack frames. The
// a·bᵀ products run 9 rows (one or two row groups and a lone row) over an
// inner dimension of 160, three panel chunks.
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
	adam := New(4, 1000) // w, g, m, v
	adam.Fill(0.5)
	forEachPath(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"MatMulInto":       func() { MatMulInto(dst, a, b) },
			"MatMulTransAAcc":  func() { MatMulTransAAcc(dt, at, dst) },
			"MatMulTransBInto": func() { MatMulTransBInto(dst, a, bt) },
			"MatMulTransBAcc":  func() { MatMulTransBAcc(dst, at, bt) },
			"Axpy4":            func() { Axpy4(0.5, 0.25, -1, 2, x, x, x, x, y) },
			"AdamStep": func() {
				AdamStep(adam.Row(0), adam.Row(1), adam.Row(2), adam.Row(3), 0.9, 0.999, 0.5, 0.25, 1e-3, 1e-8)
			},
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
// values from its input, and requires every kernel path the CPU has
// (kernelPaths) and the reference loop to agree bit for bit (any two
// NaNs equal).
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
		start := want.Clone()
		kc.ref(want, a, b, 0, m)
		for _, p := range kernelPaths() {
			got := start.Clone()
			withPath(p, func() { kc.new(got, a, b, 0, m) })
			requireSameBits(t, fmt.Sprintf("%s %dx%dx%d %s %s", kc.name, m, k, n, pattern, p.name), want, got)
		}
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
	for _, p := range kernelPaths() {
		got := append([]float64(nil), src.Row(4)...)
		withPath(p, func() { Axpy(alpha[0], xs[0], got) })
		requireSameBits(t, fmt.Sprintf("axpy n=%d %s", n, p.name), FromSlice(1, n, want), FromSlice(1, n, got))
	}
	for i := 1; i < 4; i++ {
		refAxpy(alpha[i], xs[i], want)
	}
	for _, p := range kernelPaths() {
		got := append([]float64(nil), src.Row(4)...)
		withPath(p, func() { Axpy4(alpha[0], alpha[1], alpha[2], alpha[3], xs[0], xs[1], xs[2], xs[3], got) })
		requireSameBits(t, fmt.Sprintf("axpy4 n=%d %s", n, p.name), FromSlice(1, n, want), FromSlice(1, n, got))
	}
}
