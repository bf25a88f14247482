package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9} // sorted: 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Even length interpolates: 1 2 3 4 → median 2.5, q1 1.75, q3 3.25.
	even := []float64{4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{{0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25}} {
		if got := quantile(even, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("quantile sorted its argument in place")
	}
}

// seq returns base + step·i for i < n.
func seq(n int, base, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i)
	}
	return out
}

// TestJudge runs the rule on synthetic pair tables.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "run_cpu_s", Better: "lower"}
	higher := metricDef{Name: "accuracy_final", Better: "higher"}
	wire := metricDef{Name: "wire_bytes_per_device", Better: "lower"}
	base := seq(10, 10, 0.1) // 10.0 … 10.9: median 10.45, IQR 0.45
	seeded10 := seq(10, 0.38625, 0)
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	with := func(xs []float64, i int, v float64) []float64 {
		out := append([]float64(nil), xs...)
		out[i] = v
		return out
	}
	cases := []struct {
		name          string
		d             metricDef
		base, change  []float64
		wantBetterIn  int
		wantMet       bool
		wantDeltaSign float64
	}{
		{"10 of 10 lower, gap past the IQR", lower, base, shift(base, -1), 10, true, -1},
		{"9 of 10 lower, gap past the IQR", lower, base, with(shift(base, -1), 0, 11), 9, true, -1},
		{"8 of 10 lower", lower, base, with(with(shift(base, -1), 0, 11), 1, 11), 8, false, -1},
		{"10 of 10 lower, gap inside the IQR", lower, base, shift(base, -0.05), 10, false, -1},
		{"a tie counts for neither: 9 lower + 1 tie", lower, base, with(shift(base, -1), 3, base[3]), 9, true, -1},
		{"two ties: 8 lower", lower, base, with(with(shift(base, -1), 3, base[3]), 4, base[4]), 8, false, -1},
		{"10 of 10 higher is worse for lower-better", lower, base, shift(base, 1), 0, false, 1},
		{"higher-better metric, 10 of 10 higher", higher, base, shift(base, 1), 10, true, 1},
		{"A/A: identical runs", lower, base, base, 0, false, 0},
		// A seeded metric that moves is judged like any other, not refused.
		{"seeded, moved up in one pair", higher, seeded10, with(seeded10, 1, 0.38625+1e-9), 1, false, 0},
		{"seeded, 100 B fewer in every pair", wire, seq(10, 83082.7, 0), seq(10, 82982.7, 0), 10, true, -1},
	}
	for _, c := range cases {
		v := judge(c.d, c.base, c.change)
		if v.BetterIn != c.wantBetterIn || v.Met != c.wantMet || v.Of != len(c.base) {
			t.Errorf("%s: better in %d/%d met %v, want %d/%d met %v", c.name, v.BetterIn, v.Of, v.Met, c.wantBetterIn, len(c.base), c.wantMet)
		}
		if v.DeltaPct*c.wantDeltaSign < 0 || (c.wantDeltaSign == 0) != (v.DeltaPct == 0) {
			t.Errorf("%s: delta %v%%, want sign %v", c.name, v.DeltaPct, c.wantDeltaSign)
		}
	}
	if v := judge(higher, seeded10, with(seeded10, 1, 0.38625+1e-9)); v.Moved != 1 {
		t.Errorf("a seeded value moved in one pair counts %d moved pairs, want 1", v.Moved)
	}
	if v := judge(lower, base, shift(base, -1)); math.Abs(v.BaseQ1-10.225) > 1e-9 || math.Abs(v.BaseQ3-10.675) > 1e-9 {
		t.Errorf("base quartiles %v–%v, want 10.225–10.675", v.BaseQ1, v.BaseQ3)
	}
}
