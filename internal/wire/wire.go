// Package wire implements the repository's one serialization format:
// the compact binary codec every protocol message and every checkpoint
// payload (internal/checkpoint) travels in. The format is self-describing at the value level:
// every value is prefixed with a one-byte type tag, lengths and integers
// travel as varints, float slices and byte slices are packed raw, and
// bool slices are bit-packed. Each record states its schema once, as
// its WireFields method (fields.go): the same list of fields encodes,
// decodes and sizes the record. Struct frames carry their field count
// so a schema mismatch is detected instead of silently mis-decoding.
//
// Compared to encoding/gob — which writes full type metadata with every
// message when each message uses a fresh encoder, and spends 5–6 bytes
// per float32 — this format has no per-message type descriptors and
// fixed 4/8-byte floats, which is what Table I's "Upload Data" column
// measures. Frames are encoded into pooled, reference-counted Buffers
// (buffer.go), so the hot path (importance sets every round, backbone
// parameter blobs) neither re-grows a buffer nor copies a frame per
// message: a sender leases the frame to the transport, and the last
// receiver to release it returns it to the pool. A decoded string is a
// copy of its bytes, never an alias of the frame: the strings a frame
// carries are node names and run tags, a few per frame.
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
	"slices"
)

// Version is the first byte of every encoded payload.
const Version = 1

// Type tags. One byte each; bools fold their value into the tag. The
// gaps are tags of value kinds no record has.
const (
	tFalse  = 0x01 // bool false
	tTrue   = 0x02 // bool true
	tInt    = 0x03 // zigzag varint
	tUint   = 0x04 // varint
	tF64    = 0x05 // 8 bytes little-endian
	tString = 0x07 // varint len + UTF-8 bytes
	tBytes  = 0x08 // []byte: varint len + raw bytes
	tF64s   = 0x09 // []float64: varint n + n×8 bytes
	tF32s   = 0x0a // []float32: varint n + n×4 bytes
	tInts   = 0x0b // []int: varint n + n zigzag varints
	tBools  = 0x0d // []bool: varint n + ceil(n/8) bit-packed bytes
	tList   = 0x0e // any other slice or array: varint n + n values
	tStruct = 0x0f // varint field count + the fields in order
)

var tagNames = [...]string{
	tFalse: "false", tTrue: "true", tInt: "int", tUint: "uint", tF64: "float64",
	tString: "string", tBytes: "bytes", tF64s: "[]float64", tF32s: "[]float32",
	tInts: "[]int", tBools: "[]bool", tList: "list", tStruct: "struct",
}

func tagName(t byte) string {
	if int(t) < len(tagNames) && tagNames[t] != "" {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(0x%02x)", t)
}

// Encode serializes v, a Record or a Value, into a fresh byte slice the
// caller owns. It encodes into a leased Buffer and copies the frame
// out; a sender that hands the frame on uses EncodeLeased and skips the
// copy.
func Encode(v any) ([]byte, error) {
	out, _, err := encodeCopy(v)
	return out, err
}

// encodeCopy is Encode that also returns v's RawSize, which
// EncodeLeased takes anyway.
func encodeCopy(v any) ([]byte, int, error) {
	b, raw, err := EncodeLeased(v)
	if err != nil {
		return nil, 0, err
	}
	out := slices.Clone(b.B)
	b.Release()
	return out, raw, nil
}

// Decode deserializes data into v, which must be a non-nil Record.
// Malformed input returns an error; it never panics. Trailing bytes
// after the value are rejected. Entropy-coded frames are expanded
// transparently.
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
	if _, ok := v.(Record); !ok {
		return fmt.Errorf("wire: decode target must be a record pointer, got %T", v)
	}
	if len(data) == 0 {
		return fmt.Errorf("wire: missing version byte")
	}
	if data[0] != Version {
		return fmt.Errorf("wire: unsupported version %d", data[0])
	}
	f, err := walk(Fields{mode: decoding, b: data, off: 1, arena: a}, v)
	if err != nil {
		return err
	}
	if f.off != len(data) {
		return fmt.Errorf("wire: %d trailing bytes after value", len(data)-f.off)
	}
	return nil
}

// RawSize returns the in-memory payload size of v in bytes: the space
// the logical data occupies before any encoding (int and float64 = 8,
// float32 = 4, bool and uint8 = 1, strings and byte slices at their
// length). The stats layer records it next to the wire size so
// compression ratios are a first-class measurement. A v that is not a
// record has size 0.
func RawSize(v any) int {
	s, _ := walk(Fields{mode: sizing}, v)
	return s.raw
}
