package tensor

import (
	"fmt"
	"math"
)

// AdamStep applies one Adam update, with bias corrections bc1 and bc2,
// to the parameters w from their gradients g, and moves the moment
// estimates m and v in place. Per element, each operation rounded on its
// own and in this order:
//
//	m = beta1·m + (1−beta1)·g
//	v = beta2·v + (1−beta2)·g·g
//	w = w − lr·(m/bc1) / (√(v/bc2) + eps)
//
// It runs four elements at a time on the AVX2 kernel where the CPU has
// one, and adamGo takes the rest; both give the same bits.
func AdamStep(w, g, m, v []float64, beta1, beta2, bc1, bc2, lr, eps float64) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: adam lengths %d, %d, %d vs %d", len(g), len(m), len(v), len(w)))
	}
	i := 0
	if useAVX2 {
		i = len(w) &^ 3
		adamAVX2(w, g, m, v, beta1, 1-beta1, beta2, 1-beta2, bc1, bc2, lr, eps)
	}
	adamGo(w[i:], g[i:], m[i:], v[i:], beta1, beta2, bc1, bc2, lr, eps)
}

// adamGo is the portable AdamStep loop.
func adamGo(w, g, m, v []float64, beta1, beta2, bc1, bc2, lr, eps float64) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		m[i] = beta1*m[i] + (1-beta1)*g[i]
		v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}
