package tensor

import (
	"runtime"
	"testing"
)

// TestWideKernelRejectsShortOperand: on every SIMD path a b operand
// that ends inside a row the kernel would read panics in the Go wrapper,
// even where the slice's capacity would let the kernel read on; so does
// any short operand of the eight-row aᵀ·b kernel.
func TestWideKernelRejectsShortOperand(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD kernels on this CPU")
	}
	forEachPath(t, func(t *testing.T) {
		if useAVX2 {
			wideKernelRejectsShortOperand(t)
		}
	})
}

func wideKernelRejectsShortOperand(t *testing.T) {
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
	if !useAVX512 {
		return
	}
	// Eight rows of width 4 over 3 multipliers at stride 8.
	for _, tc := range []struct {
		name      string
		d, as, bs []float64
	}{
		{"d one short", backing[:7*8+3], backing[:2*8+8], backing[:2*8+4]},
		{"as one short", backing[:7*8+4], backing[:2*8+7], backing[:2*8+4]},
		{"bs one short", backing[:7*8+4], backing[:2*8+8], backing[:2*8+3]},
	} {
		func() {
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Errorf("eight rows, %s: want a runtime bounds panic", tc.name)
				}
			}()
			mulAddRows8Wide(tc.d, 8, 4, tc.as, 8, 3, tc.bs, 8)
		}()
	}
}
