package tensor

import (
	"runtime"
	"testing"
)

// TestWideKernelRejectsShortOperand: on the AVX2 path a b operand that
// ends inside a row the kernel would read panics in the Go wrapper, even
// where the slice's capacity would let the kernel read on.
func TestWideKernelRejectsShortOperand(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this machine")
	}
	backing := make([]float64, 128)
	d := make([]float64, 8)
	for _, tc := range []struct {
		name    string
		as      []float64
		bs      []float64
		bstride int
	}{
		{"last row one short", []float64{1, 0, 2}, backing[:2*8+7], 8},
		{"empty", []float64{1}, backing[:0], 8},
		{"second call of a long multiplier run", make([]float64, wideMultipliers+1), backing[:wideMultipliers+len(d)-1], 1},
	} {
		func() {
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Errorf("%s: want a runtime bounds panic", tc.name)
				}
			}()
			mulAddRows(d, tc.as, 1, tc.bs, tc.bstride)
		}()
	}
}
