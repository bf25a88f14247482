package wire

import (
	"encoding/binary"
	"math"
	"reflect"
)

// Marshaler is implemented by types that supply a hand-rolled encoder.
// AppendWire appends the value's encoding — tag byte onward, exactly
// the bytes appendValue would produce — to b and returns the extended
// slice. AppendEncode dispatches to it ahead of the reflect walk; the
// reflect path remains the oracle, and the two must stay
// byte-identical (enforced by differential tests).
type Marshaler interface {
	AppendWire(b []byte) ([]byte, error)
}

// Unmarshaler is implemented by pointer types that supply a
// hand-rolled decoder. DecodeWire consumes exactly one value from d.
type Unmarshaler interface {
	DecodeWire(d *Dec) error
}

// The Append helpers below produce the same bytes as the reflect
// encoder for the corresponding Go value, so Marshaler implementations
// compose them field by field.

// AppendStructTag opens a struct frame with its exported field count.
func AppendStructTag(b []byte, fields int) []byte {
	return binary.AppendUvarint(append(b, tStruct), uint64(fields))
}

// AppendListTag opens a generic list frame of n elements.
func AppendListTag(b []byte, n int) []byte {
	return binary.AppendUvarint(append(b, tList), uint64(n))
}

// AppendBool appends a bool value.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, tTrue)
	}
	return append(b, tFalse)
}

// AppendInt appends a signed integer (any width).
func AppendInt(b []byte, v int64) []byte {
	return appendZigzag(append(b, tInt), v)
}

// AppendFloat64 appends a float64.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, tF64), math.Float64bits(v))
}

// AppendString appends a string.
func AppendString(b []byte, v string) []byte {
	b = binary.AppendUvarint(append(b, tString), uint64(len(v)))
	return append(b, v...)
}

// AppendBytes appends a []byte (nil and empty both encode as length 0).
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(append(b, tBytes), uint64(len(v)))
	return append(b, v...)
}

// AppendF64s appends a packed []float64.
func AppendF64s(b []byte, v []float64) []byte {
	b = binary.AppendUvarint(append(b, tF64s), uint64(len(v)))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// AppendF32s appends a packed []float32.
func AppendF32s(b []byte, v []float32) []byte {
	b = binary.AppendUvarint(append(b, tF32s), uint64(len(v)))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

// AppendBools appends a bit-packed []bool.
func AppendBools(b []byte, v []bool) []byte {
	b = binary.AppendUvarint(append(b, tBools), uint64(len(v)))
	var cur byte
	for i, x := range v {
		if x {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(v)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

// AppendInts appends a zigzag-varint signed integer slice. int8 slices
// are excluded: the reflect encoder packs those as raw bytes.
func AppendInts[T ~int | ~int16 | ~int32 | ~int64](b []byte, v []T) []byte {
	b = binary.AppendUvarint(append(b, tInts), uint64(len(v)))
	for _, x := range v {
		b = appendZigzag(b, int64(x))
	}
	return b
}

// AppendReflect appends v through the generic reflect encoder —
// the escape hatch Marshaler implementations use for cold nested
// structures (configuration metadata) where hand-rolling buys nothing.
func AppendReflect(b []byte, v any) ([]byte, error) {
	return appendValue(b, reflect.ValueOf(v))
}
