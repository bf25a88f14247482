package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// QuantMode selects the precision of model-parameter and
// importance-set payloads on the wire. Lossless (the default) ships
// exact values, so seeded runs reproduce bitwise-identical results
// regardless of codec; float16 and int8 are opt-in deterministic
// compressions for bandwidth-bound deployments.
type QuantMode int

// Quantization modes.
const (
	// QuantLossless ships float64 parameters and float32 importance
	// values exactly.
	QuantLossless QuantMode = iota
	// QuantFloat16 rounds values to IEEE 754 half precision
	// (round-to-nearest-even): 4× smaller parameters, ~2^-11 relative
	// error for in-range values.
	QuantFloat16
	// QuantInt8 scales each tensor to its max-abs value and rounds to
	// signed bytes: 8× smaller parameters, absolute error bounded by
	// maxAbs/254 per tensor.
	QuantInt8
	// QuantMixed picks the precision per layer from the importance
	// masks being shipped. Importance sets rank layers by their share
	// of the set's total mass: the heaviest layers — the ones that
	// decide pruning — keep float16, while the bulk of the elements
	// take the 1-byte int8 lane (resolveMixedLayerModes). Parameter
	// tensors use a measured-error rule instead: int8 unless its
	// relative RMS quantization error exceeds mixedInt8RelErrMax
	// (mixedLayerMode). The chosen mode travels per layer
	// (DeltaLayerPayload.Mode / ParamBlob.Mode), so decoding needs no
	// negotiation.
	QuantMixed
)

// String implements fmt.Stringer.
func (m QuantMode) String() string {
	switch m {
	case QuantLossless:
		return "lossless"
	case QuantFloat16:
		return "float16"
	case QuantInt8:
		return "int8"
	case QuantMixed:
		return "mixed"
	default:
		return fmt.Sprintf("QuantMode(%d)", int(m))
	}
}

// ParseQuantMode resolves a configuration string; "" selects lossless.
func ParseQuantMode(s string) (QuantMode, error) {
	switch s {
	case "", "lossless":
		return QuantLossless, nil
	case "float16", "f16":
		return QuantFloat16, nil
	case "int8":
		return QuantInt8, nil
	case "mixed":
		return QuantMixed, nil
	default:
		return 0, fmt.Errorf("core: unknown quantization %q (want lossless, float16, int8 or mixed)", s)
	}
}

// Valid reports whether m is a known mode.
func (m QuantMode) Valid() bool {
	return m == QuantLossless || m == QuantFloat16 || m == QuantInt8 || m == QuantMixed
}

// float16bits converts a float64 to IEEE 754 binary16 with
// round-to-nearest-even, the same deterministic rule on every
// platform. Out-of-range magnitudes saturate to ±Inf, NaN is
// preserved, and subnormal halves are produced for tiny values.
func float16bits(f float64) uint16 {
	b := math.Float64bits(f)
	sign := uint16(b >> 48 & 0x8000)
	if math.IsNaN(f) {
		return sign | 0x7e00
	}
	if math.IsInf(f, 0) {
		return sign | 0x7c00
	}
	exp := int(b>>52&0x7ff) - 1023
	mant := b & 0xfffffffffffff
	switch {
	case exp > 15:
		return sign | 0x7c00 // overflow → ±Inf
	case exp >= -14:
		// Normal half: 10 mantissa bits, round to nearest even on the
		// 42 dropped bits.
		m := mant >> 42
		rest := mant & (1<<42 - 1)
		half := uint64(1) << 41
		if rest > half || (rest == half && m&1 == 1) {
			m++
		}
		v := (uint64(exp+15) << 10) + m // mantissa carry bumps the exponent correctly
		return sign | uint16(v)
	case exp >= -24:
		// Subnormal half: implicit leading bit becomes explicit.
		shift := uint(-exp - 14 + 42)
		full := mant | 1<<52
		m := full >> shift
		rest := full & (1<<shift - 1)
		half := uint64(1) << (shift - 1)
		if rest > half || (rest == half && m&1 == 1) {
			m++
		}
		return sign | uint16(m)
	default:
		return sign // underflow → ±0
	}
}

// float16value expands IEEE 754 binary16 bits to float64.
func float16value(h uint16) float64 {
	sign := float64(1)
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h >> 10 & 0x1f)
	mant := float64(h & 0x3ff)
	switch exp {
	case 0:
		return sign * mant * math.Pow(2, -24) // subnormal (or zero)
	case 0x1f:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * (1 + mant/1024) * math.Pow(2, float64(exp-15))
	}
}

// int8Scale returns the per-tensor scale factor mapping values into
// [-127, 127].
func int8Scale(maxAbs float64) float64 {
	if maxAbs == 0 {
		return 0
	}
	return maxAbs / 127
}

// pow2Int8Scale returns the smallest power of two ≥ int8Scale(maxAbs).
// QuantMixed's int8 lane snaps scales to powers of two so the scale
// only moves when a layer's max-abs crosses a binade: successive
// rounds of a converging importance loop then share the exact scale,
// which is what lets delta encoding find unchanged int8 codes (a
// fresh max-abs scale would differ every round and force the dense
// fallback). Costs at most one bit of resolution vs the exact scale.
func pow2Int8Scale(maxAbs float64) float64 {
	s := int8Scale(maxAbs)
	if s == 0 {
		return 0
	}
	return math.Ldexp(1, int(math.Ceil(math.Log2(s))))
}

func maxAbs64(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// mixedInt8RelErrMax is the relative RMS quantization error above
// which QuantMixed rejects the int8 lane for a layer and keeps
// float16. 3% is far below the rank perturbation int8 mode already
// accepts globally, so mixed is never less faithful than plain int8.
const mixedInt8RelErrMax = 0.03

// mixedLayerMode resolves QuantMixed for one layer: int8 when the
// measured relative RMS error of int8 quantization stays below
// mixedInt8RelErrMax, float16 otherwise. The rule is a pure function
// of the values, so the sender's choice is reproducible anywhere.
func mixedLayerMode(vals []float64) QuantMode {
	scale := int8Scale(maxAbs64(vals))
	if scale == 0 {
		return QuantInt8 // all-zero layer: 1 byte per value, exact
	}
	var errSq, rmsSq float64
	for _, v := range vals {
		q := math.RoundToEven(v / scale)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		d := v - q*scale
		errSq += d * d
		rmsSq += v * v
	}
	if errSq <= mixedInt8RelErrMax*mixedInt8RelErrMax*rmsSq {
		return QuantInt8
	}
	return QuantFloat16
}

// resolveMode collapses QuantMixed to the concrete per-tensor mode via
// the measured-error rule (the parameter-blob policy); the packed
// modes pass through unchanged.
func resolveMode(mode QuantMode, vals []float64) QuantMode {
	if mode == QuantMixed {
		return mixedLayerMode(vals)
	}
	return mode
}

// mixedFloat16MassShare is the share of an importance set's total mass
// that stays in the float16 lane under QuantMixed; everything past it
// rides int8. Importance mass is heavy-tailed across layers, so the
// float16 layers are few while the int8 lane carries most elements.
const mixedFloat16MassShare = 0.5

// resolveMixedLayerModes picks the per-layer lane for a whole
// importance set: layers ranked by L1 mass keep float16 until the
// cumulative share reaches mixedFloat16MassShare; the rest take int8.
// The rule is a pure function of the uploaded set and the chosen lane
// travels per layer, so the receiver needs no negotiation.
func resolveMixedLayerModes(layers [][]float64) []QuantMode {
	n := len(layers)
	modes := make([]QuantMode, n)
	mass := make([]float64, n)
	var total float64
	for i, l := range layers {
		var m float64
		for _, v := range l {
			m += math.Abs(v)
		}
		mass[i] = m
		total += m
	}
	if total == 0 {
		for i := range modes {
			modes[i] = QuantInt8 // all-zero set: exact in 1 byte per value
		}
		return modes
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return mass[idx[a]] > mass[idx[b]] })
	var cum float64
	for _, i := range idx {
		if cum < mixedFloat16MassShare*total {
			modes[i] = QuantFloat16
		} else {
			modes[i] = QuantInt8
		}
		cum += mass[i]
	}
	return modes
}

// layerModes expands mode into one concrete lane per layer.
func layerModes(layers [][]float64, mode QuantMode) []QuantMode {
	if mode == QuantMixed {
		return resolveMixedLayerModes(layers)
	}
	modes := make([]QuantMode, len(layers))
	for i := range modes {
		modes[i] = mode
	}
	return modes
}

// quantizeValues packs vals according to mode: float16 → 2 bytes LE
// per value, int8 → 1 byte per value plus the returned scale.
func quantizeValues(vals []float64, mode QuantMode) (data []byte, scale float64, err error) {
	switch mode {
	case QuantFloat16:
		data = make([]byte, 2*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint16(data[2*i:], float16bits(v))
		}
		return data, 0, nil
	case QuantInt8:
		scale = int8Scale(maxAbs64(vals))
		return int8Pack(vals, scale), scale, nil
	default:
		return nil, 0, fmt.Errorf("core: quantizeValues: mode %v has no packed form", mode)
	}
}

// int8Pack rounds vals to signed bytes under the given scale.
func int8Pack(vals []float64, scale float64) []byte {
	data := make([]byte, len(vals))
	if scale == 0 {
		return data
	}
	for i, v := range vals {
		q := math.RoundToEven(v / scale)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		data[i] = byte(int8(q))
	}
	return data
}

// quantizeLane packs one layer into its concrete lane. Layers whose
// lane was assigned by QuantMixed use the round-stable power-of-two
// int8 scale; plain int8 keeps the exact max-abs scale.
func quantizeLane(l []float64, lane, requested QuantMode) (data []byte, scale float64, err error) {
	if lane == QuantInt8 && requested == QuantMixed {
		scale = pow2Int8Scale(maxAbs64(l))
		return int8Pack(l, scale), scale, nil
	}
	return quantizeValues(l, lane)
}

// dequantizeValues reverses quantizeValues into dst, which must have
// the element count the packed data encodes.
func dequantizeValues(dst []float64, data []byte, scale float64, mode QuantMode) error {
	switch mode {
	case QuantFloat16:
		if len(data) != 2*len(dst) {
			return fmt.Errorf("core: float16 payload %d bytes for %d values", len(data), len(dst))
		}
		for i := range dst {
			dst[i] = float16value(binary.LittleEndian.Uint16(data[2*i:]))
		}
		return nil
	case QuantInt8:
		if len(data) != len(dst) {
			return fmt.Errorf("core: int8 payload %d bytes for %d values", len(data), len(dst))
		}
		for i := range dst {
			dst[i] = float64(int8(data[i])) * scale
		}
		return nil
	default:
		return fmt.Errorf("core: dequantizeValues: mode %v has no packed form", mode)
	}
}
