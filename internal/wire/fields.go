package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Record is implemented by a pointer to every type that travels as a
// wire frame or inside one. WireFields states the record's schema, its
// fields in order, once, as calls on the Fields cursor it is handed;
// the cursor encodes, decodes or sizes them. A struct record opens with
// Struct(n), n its exported field count, so that a frame written under
// another schema is an error instead of a silent mis-decode.
type Record interface {
	WireFields(f *Fields)
}

// Value is implemented by the value of a top-level frame kind, so that
// Encode and RawSize take the frame by value as well as by pointer. Its
// WireValue calls the pointer's WireFields on the receiver's copy.
type Value interface {
	WireValue(f *Fields)
}

type mode uint8

const (
	encoding mode = iota
	decoding
	sizing
)

// Fields is the cursor a schema runs over. In one pass it appends each
// field's encoding to a frame, decodes each field from a frame into the
// record, or adds up the record's raw size. Decoding checks every tag,
// count and bound, so a malformed frame is an error, never a panic or
// an outsized allocation; the first error sticks (every decode step
// checks err first and sets it only while it is nil), and the fields
// after it are left as they are.
//
// A decoded slice reuses the target's backing when that is big enough,
// and is carved from the arena otherwise (made, without one); an empty
// one decodes as nil. []byte fields alias the frame, and []float32
// fields do too under Arena.AliasInput: see Arena for the lifetime that
// implies.
type Fields struct {
	mode  mode
	b     []byte // the frame: appended to when encoding, read when decoding
	off   int    // the decode offset into b
	arena *Arena
	raw   int // the raw size so far, when sizing
	err   error
}

// fieldsPool recycles cursors: handed to a schema through an interface
// call, a cursor would otherwise be allocated per frame.
var fieldsPool = sync.Pool{New: func() any { return new(Fields) }}

// walk runs v's schema over a pooled cursor that starts as c, and
// returns the cursor as the schema left it.
func walk(c Fields, v any) (Fields, error) {
	f := fieldsPool.Get().(*Fields)
	*f = c
	var err error
	switch r := v.(type) {
	case Record:
		if isNil(r) {
			err = fmt.Errorf("wire: nil %T", v)
			break
		}
		r.WireFields(f)
		err = f.err
	case Value:
		r.WireValue(f)
	default:
		err = fmt.Errorf("wire: %T is not a record", v)
	}
	c = *f
	*f = Fields{}
	fieldsPool.Put(f)
	return c, err
}

// isNil reports whether r holds a nil pointer. An interface holding a
// pointer stores the pointer itself as its data word, and no other
// value leaves that word nil.
func isNil(r Record) bool {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&r))[1] == nil
}

// tag consumes one tag byte and reports whether it is want.
func (f *Fields) tag(want byte) bool {
	if f.err != nil {
		return false
	}
	if f.off >= len(f.b) {
		f.err = fmt.Errorf("wire: truncated input at offset %d", f.off)
		return false
	}
	if got := f.b[f.off]; got != want {
		f.err = fmt.Errorf("wire: want %s, got %s at offset %d", tagName(want), tagName(got), f.off)
		return false
	}
	f.off++
	return true
}

func (f *Fields) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	u, n := binary.Uvarint(f.b[f.off:])
	if n <= 0 {
		f.err = fmt.Errorf("wire: bad varint at offset %d", f.off)
		return 0
	}
	f.off += n
	return u
}

func (f *Fields) take(n int) []byte {
	if f.err != nil {
		return nil
	}
	if n < 0 || n > len(f.b)-f.off {
		f.err = fmt.Errorf("wire: need %d bytes at offset %d, have %d", n, f.off, len(f.b)-f.off)
		return nil
	}
	s := f.b[f.off : f.off+n]
	f.off += n
	return s
}

// open writes or reads the tag and element count of a frame of n
// elements, and returns the count: n when encoding or sizing, the
// frame's when decoding. A decoded count the rest of the frame cannot
// hold at minBytes per element is an error, so that a corrupt length
// cannot drive a huge allocation. After an error the count is 0.
func (f *Fields) open(tag byte, n, minBytes int) int {
	switch f.mode {
	case encoding:
		f.b = binary.AppendUvarint(append(f.b, tag), uint64(n))
	case decoding:
		if !f.tag(tag) {
			return 0
		}
		u := f.uvarint()
		n = int(u)
		if n < 0 || (minBytes > 0 && n > (len(f.b)-f.off)/minBytes+1) {
			f.err = fmt.Errorf("wire: implausible length %d at offset %d", u, f.off)
		}
		if f.err != nil {
			return 0
		}
	}
	return n
}

// Struct opens a struct record of n fields.
func (f *Fields) Struct(n int) {
	switch f.mode {
	case encoding:
		f.b = binary.AppendUvarint(append(f.b, tStruct), uint64(n))
	case decoding:
		if f.tag(tStruct) {
			if got := f.uvarint(); f.err == nil && got != uint64(n) {
				f.err = fmt.Errorf("wire: record of %d fields, frame has %d", n, got)
			}
		}
	}
}

// Bool is a bool field; its value is its tag.
func (f *Fields) Bool(p *bool) {
	switch f.mode {
	case encoding:
		if *p {
			f.b = append(f.b, tTrue)
		} else {
			f.b = append(f.b, tFalse)
		}
	case sizing:
		f.raw++
	case decoding:
		if f.err != nil {
			return
		}
		if f.off >= len(f.b) {
			f.err = fmt.Errorf("wire: truncated input at offset %d", f.off)
			return
		}
		switch f.b[f.off] {
		case tTrue:
			*p = true
		case tFalse:
			*p = false
		default:
			f.err = fmt.Errorf("wire: want bool, got %s at offset %d", tagName(f.b[f.off]), f.off)
			return
		}
		f.off++
	}
}

// signed is a zigzag-varint integer field of width raw bytes. It
// reports whether it decoded a value into *p.
func (f *Fields) signed(p *int64, width int) bool {
	switch f.mode {
	case encoding:
		f.b = appendZigzag(append(f.b, tInt), *p)
	case sizing:
		f.raw += width
	case decoding:
		if f.tag(tInt) {
			if u := f.uvarint(); f.err == nil {
				*p = int64(u>>1) ^ -int64(u&1)
				return true
			}
		}
	}
	return false
}

// unsigned is a varint integer field of width raw bytes. It reports
// whether it decoded a value into *p.
func (f *Fields) unsigned(p *uint64, width int) bool {
	switch f.mode {
	case encoding:
		f.b = binary.AppendUvarint(append(f.b, tUint), *p)
	case sizing:
		f.raw += width
	case decoding:
		if f.tag(tUint) {
			if u := f.uvarint(); f.err == nil {
				*p = u
				return true
			}
		}
	}
	return false
}

func appendZigzag(b []byte, i int64) []byte {
	return binary.AppendUvarint(b, uint64(i<<1)^uint64(i>>63))
}

// Int is an int field.
func (f *Fields) Int(p *int) {
	x := int64(*p)
	if f.signed(&x, 8) {
		*p = int(x)
	}
}

// Uint8 is a uint8 field; a decoded value past 255 is an error.
func (f *Fields) Uint8(p *uint8) {
	x := uint64(*p)
	if f.unsigned(&x, 1) {
		if x > math.MaxUint8 {
			f.err = fmt.Errorf("wire: %d overflows uint8", x)
			return
		}
		*p = uint8(x)
	}
}

// F64 is a float64 field: 8 bytes little-endian.
func (f *Fields) F64(p *float64) {
	switch f.mode {
	case encoding:
		f.b = binary.LittleEndian.AppendUint64(append(f.b, tF64), math.Float64bits(*p))
	case sizing:
		f.raw += 8
	case decoding:
		if f.tag(tF64) {
			if raw := f.take(8); f.err == nil {
				*p = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			}
		}
	}
}

// String is a string field: its length and its bytes. It decodes as a
// copy of the frame's bytes.
func (f *Fields) String(p *string) {
	n := f.open(tString, len(*p), 1)
	switch f.mode {
	case encoding:
		f.b = append(f.b, *p...)
	case sizing:
		f.raw += n
	case decoding:
		if raw := f.take(n); f.err == nil {
			*p = string(raw)
		}
	}
}

// Bytes is a []byte field: its length and its bytes. It decodes as an
// alias of the frame.
func (f *Fields) Bytes(p *[]byte) {
	n := f.open(tBytes, len(*p), 1)
	switch f.mode {
	case encoding:
		f.b = append(f.b, *p...)
	case sizing:
		f.raw += n
	case decoding:
		if raw := f.take(n); f.err == nil {
			*p = raw[:n:n]
			if n == 0 {
				*p = nil
			}
		}
	}
}

// sliceFor picks the backing for an n-element decode: the caller's
// slice when its capacity suffices, else a carve.
func sliceFor[T any](dst []T, n int, carve func(int) []T) []T {
	if cap(dst) >= n {
		return dst[:n]
	}
	return carve(n)
}

// F64s is a []float64 field: its length and 8 bytes per element.
func (f *Fields) F64s(p *[]float64) {
	n := f.open(tF64s, len(*p), 8)
	switch f.mode {
	case encoding:
		f.b = appendF64s(f.b, *p)
	case sizing:
		f.raw += 8 * n
	case decoding:
		raw := f.take(8 * n)
		if f.err != nil {
			return
		}
		if n == 0 {
			*p = nil
			return
		}
		s := sliceFor(*p, n, f.arena.carveF64)
		copyF64s(s, raw)
		*p = s
	}
}

// F32s is a []float32 field: its length and 4 bytes per element.
func (f *Fields) F32s(p *[]float32) {
	n := f.open(tF32s, len(*p), 4)
	switch f.mode {
	case encoding:
		f.b = appendF32s(f.b, *p)
	case sizing:
		f.raw += 4 * n
	case decoding:
		raw := f.take(4 * n)
		if f.err != nil {
			return
		}
		if n == 0 {
			*p = nil
			return
		}
		if f.arena != nil && f.arena.AliasInput {
			if s, ok := aliasF32(raw, n); ok {
				*p = s
				return
			}
		}
		s := sliceFor(*p, n, f.arena.carveF32)
		copyF32s(s, raw)
		*p = s
	}
}

// Bools is a []bool field: its length and one bit per element.
func (f *Fields) Bools(p *[]bool) {
	n := f.open(tBools, len(*p), 0)
	switch f.mode {
	case encoding:
		b, cur := f.b, byte(0)
		for i, x := range *p {
			if x {
				cur |= 1 << (i % 8)
			}
			if i%8 == 7 {
				b = append(b, cur)
				cur = 0
			}
		}
		if n%8 != 0 {
			b = append(b, cur)
		}
		f.b = b
	case sizing:
		f.raw += n
	case decoding:
		raw := f.take((n + 7) / 8)
		if f.err != nil {
			return
		}
		if n == 0 {
			*p = nil
			return
		}
		s := sliceFor(*p, n, f.arena.carveBools)
		for i := range s {
			s[i] = raw[i/8]&(1<<(i%8)) != 0
		}
		*p = s
	}
}

// Ints is an []int field: its length and a zigzag varint per element.
func (f *Fields) Ints(p *[]int) {
	n := f.open(tInts, len(*p), 1)
	switch f.mode {
	case encoding:
		b := f.b
		for _, x := range *p {
			b = appendZigzag(b, int64(x))
		}
		f.b = b
	case sizing:
		f.raw += 8 * n
	case decoding:
		if f.err != nil {
			return
		}
		if n == 0 {
			*p = nil
			return
		}
		s := sliceFor(*p, n, f.arena.carveInts)
		for i := range s {
			u := f.uvarint()
			s[i] = int(int64(u>>1) ^ -int64(u&1))
		}
		if f.err == nil {
			*p = s
		}
	}
}

// List is a slice field of any other element type: its length and each
// element as elem states it. A decoded list reuses the target's
// elements, and so their slices, when it has enough of them.
func List[T any](f *Fields, s *[]T, elem func(*Fields, *T)) {
	n := f.open(tList, len(*s), 1)
	if f.mode == decoding && f.err == nil {
		switch {
		case n == 0:
			*s = nil
		case cap(*s) >= n:
			*s = (*s)[:n]
		default:
			*s = make([]T, n)
		}
	}
	for i := range n {
		elem(f, &(*s)[i])
	}
}

// Records is a list of records.
func Records[T any, P interface {
	*T
	Record
}](f *Fields, s *[]T) {
	List(f, s, func(f *Fields, e *T) { P(e).WireFields(f) })
}

// Array is a fixed-length array field, framed as a list; a decoded
// list of any other length is an error.
func Array[T any](f *Fields, a []T, elem func(*Fields, *T)) {
	if n := f.open(tList, len(a), 1); f.err == nil && n != len(a) {
		f.err = fmt.Errorf("wire: array of %d elements, frame has %d", len(a), n)
	}
	for i := range a {
		elem(f, &a[i])
	}
}
