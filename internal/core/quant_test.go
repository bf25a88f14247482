package core

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/pareto"
)

func TestFloat16KnownValues(t *testing.T) {
	cases := []struct {
		in   float64
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // largest normal half
		{65536, 0x7c00},                 // overflow → +Inf
		{math.Inf(1), 0x7c00},           // +Inf
		{math.Inf(-1), 0xfc00},          // -Inf
		{6.103515625e-05, 0x0400},       // smallest normal half (2^-14)
		{5.960464477539063e-08, 0x0001}, // smallest subnormal (2^-24)
	}
	for _, c := range cases {
		if got := float16bits(c.in); got != c.bits {
			t.Errorf("float16bits(%v) = 0x%04x, want 0x%04x", c.in, got, c.bits)
		}
	}
	if !math.IsNaN(float16value(float16bits(math.NaN()))) {
		t.Error("NaN must survive the half round trip")
	}
}

func TestFloat16RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Relative error of round-to-nearest half precision is at most
	// 2^-11 for values in the normal range.
	const bound = 1.0 / 2048
	for i := 0; i < 10000; i++ {
		v := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		got := float16value(float16bits(v))
		if math.Abs(v) >= 6.2e-5 && math.Abs(v) <= 65504 {
			if rel := math.Abs(got-v) / math.Abs(v); rel > bound {
				t.Fatalf("float16(%v) = %v: relative error %.2e > 2^-11", v, got, rel)
			}
		}
	}
	// Exactly representable values round-trip bit-exactly.
	for _, v := range []float64{0, 1, -1, 0.25, 1024, -0.125} {
		if got := float16value(float16bits(v)); got != v {
			t.Fatalf("exact value %v round-tripped to %v", v, got)
		}
	}
}

func TestInt8RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.3
	}
	data, scale, err := quantizeValues(vals, QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(vals) {
		t.Fatalf("int8 payload %d bytes for %d values", len(data), len(vals))
	}
	back := make([]float64, len(vals))
	if err := dequantizeValues(back, data, scale, QuantInt8); err != nil {
		t.Fatal(err)
	}
	// Absolute error is bounded by half a quantization step.
	bound := scale/2 + 1e-15
	for i, v := range vals {
		if math.Abs(back[i]-v) > bound {
			t.Fatalf("int8 value %v → %v: error %.3e > step/2 %.3e", v, back[i], math.Abs(back[i]-v), bound)
		}
	}
}

func TestInt8AllZeros(t *testing.T) {
	vals := make([]float64, 16)
	data, scale, err := quantizeValues(vals, QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 0 {
		t.Fatalf("zero tensor scale %v", scale)
	}
	back := make([]float64, 16)
	if err := dequantizeValues(back, data, scale, QuantInt8); err != nil {
		t.Fatal(err)
	}
	for _, v := range back {
		if v != 0 {
			t.Fatal("zero tensor must dequantize to zeros")
		}
	}
}

func TestParseQuantMode(t *testing.T) {
	for s, want := range map[string]QuantMode{
		"": QuantLossless, "lossless": QuantLossless,
		"float16": QuantFloat16, "f16": QuantFloat16,
		"int8": QuantInt8,
	} {
		got, err := ParseQuantMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseQuantMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseQuantMode("float8"); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestQuantizedBackboneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bb := codecBackbone(t, rng)
	for _, mode := range []QuantMode{QuantFloat16, QuantInt8} {
		asg := EncodeBackbone(bb, 1, 3, pareto.Candidate{}, mode)
		for i, p := range asg.Params {
			if len(p.Data) != 0 {
				t.Fatalf("%v: blob %d still carries float64 data", mode, i)
			}
		}
		got, err := DecodeBackbone(asg)
		if err != nil {
			t.Fatal(err)
		}
		orig := bb.Params()
		dec := got.Params()
		for i := range orig {
			maxAbs := maxAbs64(orig[i].Value.Data)
			for j := range orig[i].Value.Data {
				want := orig[i].Value.Data[j]
				gotV := dec[i].Value.Data[j]
				var bound float64
				if mode == QuantFloat16 {
					bound = math.Abs(want)/2048 + 1e-7
				} else {
					bound = maxAbs/254 + 1e-12
				}
				if math.Abs(gotV-want) > bound {
					t.Fatalf("%v: param %s[%d]: %v → %v (bound %.3e)", mode, orig[i].Name, j, want, gotV, bound)
				}
			}
		}
	}
}
