// Package wire implements the repository's one serialization format:
// the compact binary codec every protocol message and every checkpoint
// payload (internal/checkpoint) travels in. The format is self-describing at the value level:
// every value is prefixed with a one-byte type tag, lengths and integers
// travel as varints, float slices and byte slices are packed raw, and
// bool slices are bit-packed. Struct frames carry their exported field
// count so a schema mismatch is detected instead of silently
// mis-decoding.
//
// Compared to encoding/gob — which writes full type metadata with every
// message when each message uses a fresh encoder, and spends 5–6 bytes
// per float32 — this format has no per-message type descriptors and
// fixed 4/8-byte floats, which is what Table I's "Upload Data" column
// measures. Frames are encoded into pooled, reference-counted Buffers
// (buffer.go), so the hot path (importance sets every round, backbone
// parameter blobs) neither re-grows a buffer nor copies a frame per
// message: a sender leases the frame to the transport, and the last
// receiver to release it returns it to the pool.
//
// Layout:
//
//	payload  := version(1 byte) value
//	value    := tag data
//	varint   := unsigned LEB128 (encoding/binary)
//	zigzag   := varint of (i<<1)^(i>>63)
package wire

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// Version is the first byte of every encoded payload.
const Version = 1

// Type tags. One byte each; bools fold their value into the tag.
const (
	tNil    = 0x00 // nil pointer / absent value
	tFalse  = 0x01 // bool false
	tTrue   = 0x02 // bool true
	tInt    = 0x03 // zigzag varint
	tUint   = 0x04 // varint
	tF64    = 0x05 // 8 bytes little-endian
	tF32    = 0x06 // 4 bytes little-endian
	tString = 0x07 // varint len + UTF-8 bytes
	tBytes  = 0x08 // []byte or []int8: varint len + raw bytes
	tF64s   = 0x09 // []float64: varint n + n×8 bytes
	tF32s   = 0x0a // []float32: varint n + n×4 bytes
	tInts   = 0x0b // signed int slice: varint n + n zigzag varints
	tUints  = 0x0c // unsigned int slice: varint n + n varints
	tBools  = 0x0d // []bool: varint n + ceil(n/8) bit-packed bytes
	tList   = 0x0e // generic slice/array: varint n + n values
	tStruct = 0x0f // varint field count + exported fields in order
	tMap    = 0x10 // varint n + n sorted key/value pairs
)

func tagName(t byte) string {
	names := map[byte]string{
		tNil: "nil", tFalse: "false", tTrue: "true", tInt: "int",
		tUint: "uint", tF64: "float64", tF32: "float32", tString: "string",
		tBytes: "bytes", tF64s: "[]float64", tF32s: "[]float32",
		tInts: "[]int", tUints: "[]uint", tBools: "[]bool",
		tList: "list", tStruct: "struct", tMap: "map",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("tag(0x%02x)", t)
}

// Encode serializes v into a fresh byte slice the caller owns. It
// encodes into a leased Buffer and copies the frame out; a sender that
// hands the frame on uses EncodeLeased and skips the copy.
func Encode(v any) ([]byte, error) {
	b, err := EncodeLeased(v)
	if err != nil {
		return nil, err
	}
	out := slices.Clone(b.B)
	b.Release()
	return out, nil
}

// AppendEncode appends the encoding of v to dst and returns the
// extended slice. This is the zero-copy entry point for callers that
// frame messages themselves (the TCP transport). Types implementing
// Marshaler encode through their hand-rolled path; everything else
// goes through the reflect walk. Both produce identical bytes.
func AppendEncode(dst []byte, v any) ([]byte, error) {
	dst = append(dst, Version)
	if m, ok := v.(Marshaler); ok {
		return m.AppendWire(dst)
	}
	return appendValue(dst, reflect.ValueOf(v))
}

// Decode deserializes data into v, which must be a non-nil pointer.
// Malformed input returns an error; it never panics. Trailing bytes
// after the value are rejected. Entropy-coded frames are expanded
// transparently; pointer types implementing Unmarshaler decode
// through their hand-rolled path.
func Decode(data []byte, v any) error {
	return DecodeArena(data, v, nil)
}

// DecodeArena is Decode with the decoded slices carved from a (and,
// when a.AliasInput is set, aliased straight into data — see Arena for
// the lifetime contract). A nil arena behaves exactly like Decode.
func DecodeArena(data []byte, v any, a *Arena) error {
	if IsEntropy(data) {
		plain, _, err := EntropyExpand(data)
		if err != nil {
			return err
		}
		// The expanded frame is freshly allocated, so aliases into it
		// are safe regardless of who owns the original buffer.
		data = plain
	}
	if u, ok := v.(Unmarshaler); ok {
		d := decPool.Get().(*Dec)
		defer func() {
			d.d = decoder{}
			d.arena = nil
			decPool.Put(d)
		}()
		d.d = decoder{b: data}
		d.arena = a
		ver, err := d.d.u8()
		if err != nil {
			return fmt.Errorf("wire: missing version byte")
		}
		if ver != Version {
			return fmt.Errorf("wire: unsupported version %d", ver)
		}
		if err := u.DecodeWire(d); err != nil {
			return err
		}
		if d.d.off != len(d.d.b) {
			return fmt.Errorf("wire: %d trailing bytes after value", len(d.d.b)-d.d.off)
		}
		return nil
	}
	return DecodeReflect(data, v)
}

// EncodeReflect is Encode forced through the generic reflect walk,
// ignoring any Marshaler implementation — the differential-test
// oracle for hand-rolled codecs.
func EncodeReflect(v any) ([]byte, error) {
	b, err := AppendReflect([]byte{Version}, v)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeReflect is Decode forced through the generic reflect walk,
// ignoring any Unmarshaler implementation — the differential-test
// oracle for hand-rolled codecs. It does not expand entropy frames.
func DecodeReflect(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: decode target must be a non-nil pointer, got %T", v)
	}
	d := &decoder{b: data}
	ver, err := d.u8()
	if err != nil {
		return fmt.Errorf("wire: missing version byte")
	}
	if ver != Version {
		return fmt.Errorf("wire: unsupported version %d", ver)
	}
	if err := decodeValue(d, rv.Elem()); err != nil {
		return err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after value", len(d.b)-d.off)
	}
	return nil
}

// decPool recycles Dec cursors: the interface call in DecodeArena
// would otherwise heap-allocate one per hand-rolled decode.
var decPool = sync.Pool{New: func() any { return new(Dec) }}

// fieldCache maps a struct type to the indices of its exported fields.
var fieldCache sync.Map // reflect.Type -> []int

func exportedFields(t reflect.Type) []int {
	if idx, ok := fieldCache.Load(t); ok {
		return idx.([]int)
	}
	var idx []int
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).IsExported() {
			idx = append(idx, i)
		}
	}
	fieldCache.Store(t, idx)
	return idx
}

// RawSize returns the in-memory payload size of v in bytes: the space
// the logical data occupies before any encoding (float64 = 8, float32
// = 4, bool = 1, strings and byte slices at their length). The stats
// layer records it next to the wire size so compression ratios are a
// first-class measurement.
func RawSize(v any) int {
	return rawSize(reflect.ValueOf(v))
}

func rawSize(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		return 8
	case reflect.String:
		return v.Len()
	case reflect.Slice, reflect.Array:
		n := v.Len()
		if n == 0 {
			return 0
		}
		switch v.Type().Elem().Kind() {
		case reflect.Bool, reflect.Int8, reflect.Uint8:
			return n
		case reflect.Int16, reflect.Uint16:
			return 2 * n
		case reflect.Int32, reflect.Uint32, reflect.Float32:
			return 4 * n
		case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
			return 8 * n
		}
		total := 0
		for i := 0; i < n; i++ {
			total += rawSize(v.Index(i))
		}
		return total
	case reflect.Struct:
		total := 0
		for _, i := range exportedFields(v.Type()) {
			total += rawSize(v.Field(i))
		}
		return total
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return rawSize(v.Elem())
	case reflect.Map:
		total := 0
		iter := v.MapRange()
		for iter.Next() {
			total += rawSize(iter.Key()) + rawSize(iter.Value())
		}
		return total
	default:
		return 0
	}
}
