package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Dec is the cursor handed to Unmarshaler implementations. It walks
// the same byte layout as the reflect decoder with the same bounds
// and plausibility checks, but decodes without reflection and — when
// bound to an Arena — without per-slice allocations. []byte results
// always alias the frame buffer; float32 slices alias it too when the
// arena opts in (see Arena.AliasInput), and other float slices land in
// arena blocks or caller-supplied backing.
type Dec struct {
	d     decoder
	arena *Arena
}

func (d *Dec) tag(want byte, what string) error {
	got, err := d.d.u8()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("wire: decoding %s: want %s, got %s at offset %d",
			what, tagName(want), tagName(got), d.d.off-1)
	}
	return nil
}

// Struct opens a struct frame and checks its field count, mirroring
// the reflect decoder's schema-mismatch detection.
func (d *Dec) Struct(name string, fields int) error {
	if err := d.tag(tStruct, name); err != nil {
		return err
	}
	n, err := d.d.uvarint()
	if err != nil {
		return err
	}
	if int(n) != fields {
		return fmt.Errorf("wire: %s has %d exported fields, frame has %d", name, fields, n)
	}
	return nil
}

// ListLen opens a generic list frame and returns its element count.
func (d *Dec) ListLen(what string) (int, error) {
	if err := d.tag(tList, what); err != nil {
		return 0, err
	}
	return d.d.seqLen(1)
}

// Bool decodes a bool.
func (d *Dec) Bool(what string) (bool, error) {
	got, err := d.d.u8()
	if err != nil {
		return false, err
	}
	switch got {
	case tTrue:
		return true, nil
	case tFalse:
		return false, nil
	default:
		return false, fmt.Errorf("wire: decoding %s: got %s", what, tagName(got))
	}
}

// Int decodes a signed integer of any width.
func (d *Dec) Int(what string) (int64, error) {
	if err := d.tag(tInt, what); err != nil {
		return 0, err
	}
	return d.d.zigzag()
}

// Uint decodes an unsigned integer.
func (d *Dec) Uint(what string) (uint64, error) {
	if err := d.tag(tUint, what); err != nil {
		return 0, err
	}
	return d.d.uvarint()
}

// Float64 decodes a float64.
func (d *Dec) Float64(what string) (float64, error) {
	if err := d.tag(tF64, what); err != nil {
		return 0, err
	}
	raw, err := d.d.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw)), nil
}

// Float32 decodes a float32.
func (d *Dec) Float32(what string) (float32, error) {
	if err := d.tag(tF32, what); err != nil {
		return 0, err
	}
	raw, err := d.d.take(4)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(raw)), nil
}

// String decodes a string.
func (d *Dec) String(what string) (string, error) {
	if err := d.tag(tString, what); err != nil {
		return "", err
	}
	n, err := d.d.seqLen(1)
	if err != nil {
		return "", err
	}
	raw, err := d.d.take(n)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// Bytes decodes a []byte as a zero-copy alias of the frame buffer.
// The result is valid for as long as the frame buffer is: until the
// message's Release for pooled transport buffers, indefinitely for
// entropy-expanded or caller-owned frames. Empty decodes as nil.
func (d *Dec) Bytes(what string) ([]byte, error) {
	if err := d.tag(tBytes, what); err != nil {
		return nil, err
	}
	n, err := d.d.seqLen(1)
	if err != nil {
		return nil, err
	}
	raw, err := d.d.take(n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return raw, nil
}

// sliceFor picks the backing for an n-element decode: the caller's
// slice when its capacity suffices (steady-state reuse), else an
// arena carve (or a plain make without an arena).
func sliceFor[T any](dst []T, n int, carve func(int) []T) []T {
	if cap(dst) >= n {
		return dst[:n]
	}
	return carve(n)
}

// F64s decodes a packed []float64. dst, when capacious enough, is
// reused as the backing. Empty decodes as nil.
func (d *Dec) F64s(what string, dst []float64) ([]float64, error) {
	if err := d.tag(tF64s, what); err != nil {
		return nil, err
	}
	n, err := d.d.seqLen(8)
	if err != nil {
		return nil, err
	}
	raw, err := d.d.take(8 * n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	s := sliceFor(dst, n, d.arena.carveF64)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return s, nil
}

// F32s decodes a packed []float32; see F64s for backing rules. Under
// Arena.AliasInput it may alias the frame buffer instead.
func (d *Dec) F32s(what string, dst []float32) ([]float32, error) {
	if err := d.tag(tF32s, what); err != nil {
		return nil, err
	}
	n, err := d.d.seqLen(4)
	if err != nil {
		return nil, err
	}
	raw, err := d.d.take(4 * n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if d.arena != nil && d.arena.AliasInput {
		if s, ok := aliasF32(raw, n); ok {
			return s, nil
		}
	}
	s := sliceFor(dst, n, d.arena.carveF32)
	for i := range s {
		s[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return s, nil
}

// Bools decodes a bit-packed []bool.
func (d *Dec) Bools(what string, dst []bool) ([]bool, error) {
	if err := d.tag(tBools, what); err != nil {
		return nil, err
	}
	n, err := d.d.seqLen(0)
	if err != nil {
		return nil, err
	}
	raw, err := d.d.take((n + 7) / 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	s := sliceFor(dst, n, d.arena.carveBools)
	for i := range s {
		s[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return s, nil
}

// Ints decodes a zigzag-varint []int.
func (d *Dec) Ints(what string, dst []int) ([]int, error) {
	if err := d.tag(tInts, what); err != nil {
		return nil, err
	}
	n, err := d.d.seqLen(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	s := sliceFor(dst, n, d.arena.carveInts)
	for i := range s {
		x, err := d.d.zigzag()
		if err != nil {
			return nil, err
		}
		s[i] = int(x)
	}
	return s, nil
}

// Reflect decodes one value through the generic reflect decoder into
// v (a non-nil pointer) — the escape hatch for cold nested structures.
func (d *Dec) Reflect(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: Reflect target must be a non-nil pointer, got %T", v)
	}
	return decodeValue(&d.d, rv.Elem())
}
