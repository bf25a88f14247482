package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
)

// DeltaLayer is the wire record for one layer of a delta-encoded
// importance upload: the round-t payload expressed against the round
// t−1 payload both endpoints already hold. The layer is a packed
// fixed-width element array (Elem bytes per element: 4 for float32,
// 2 for float16, 1 for int8), so one record type serves every
// quantization mode.
//
// Sparse form (Dense=false): Mask is a bit-per-element changed-index
// bitmask (bit i of Mask[i/8] set ⇔ element i differs from round t−1)
// and Changed holds the new packed elements at the set positions, in
// ascending index order. Dense form (Dense=true): Changed carries all
// N elements and Mask is empty — the fallback when no previous round
// exists or when the sparse encoding would not be smaller.
//
// Elements are compared and replaced bitwise, never arithmetically, so
// Apply reconstructs the round-t payload exactly: a delta-encoded
// exchange is bit-for-bit identical to shipping the dense payload.
type DeltaLayer struct {
	N       int    // element count of the layer
	Elem    int    // bytes per packed element
	Dense   bool   // true: Changed carries the full payload
	Mask    []byte // changed-index bitmask, ceil(N/8) bytes (sparse only)
	Changed []byte // packed changed elements (or all N, when Dense)
}

// WireFields states the delta layer's schema. Mask and Changed decode
// as aliases of the frame; Apply copies them into the shadow, so the
// alias never outlives the frame.
func (d *DeltaLayer) WireFields(f *Fields) {
	f.Struct(5)
	f.Int(&d.N)
	f.Int(&d.Elem)
	f.Bool(&d.Dense)
	f.Bytes(&d.Mask)
	f.Bytes(&d.Changed)
}

// DiffLayer encodes cur against prev, both packed element arrays of
// the same element width. It returns the sparse form when that is
// strictly smaller than shipping cur densely, and the dense form
// otherwise. len(prev) != len(cur) (a shape change between rounds)
// also forces the dense form. Trailing bytes beyond the last whole
// element are dropped, keeping the record consistent with its own
// Apply; callers are expected to pass exact multiples of elem. The
// dense form's Changed is cur itself, so cur must stay unchanged until
// the record is encoded; the sparse form owns its Mask and Changed, cut
// from one allocation.
func DiffLayer(prev, cur []byte, elem int) DeltaLayer {
	if elem <= 0 {
		elem = 1
	}
	n := len(cur) / elem
	cur = cur[:n*elem]
	d := DeltaLayer{N: n, Elem: elem}
	if len(prev) != len(cur) {
		d.Dense, d.Changed = true, cur
		return d
	}
	changed := 0
	for i := 0; i < n; i++ {
		if !bytes.Equal(prev[i*elem:(i+1)*elem], cur[i*elem:(i+1)*elem]) {
			changed++
		}
	}
	maskLen := (n + 7) / 8
	if maskLen+changed*elem >= n*elem {
		d.Dense, d.Changed = true, cur
		return d
	}
	buf := make([]byte, maskLen+changed*elem)
	d.Mask, d.Changed = buf[:maskLen:maskLen], buf[maskLen:maskLen]
	for i := 0; i < n; i++ {
		if !bytes.Equal(prev[i*elem:(i+1)*elem], cur[i*elem:(i+1)*elem]) {
			d.Mask[i/8] |= 1 << (i % 8)
			d.Changed = append(d.Changed, cur[i*elem:(i+1)*elem]...)
		}
	}
	return d
}

// Check validates the record against itself: every field is
// wire-controlled, so a corrupt bitmask or truncated element block
// surfaces here as an error. A record that passes has N backed by the
// frame — by Changed when dense, by a mask of ⌈N/8⌉ bytes when sparse —
// so a shadow of N elements costs no more than the frame carried.
func (d *DeltaLayer) Check() error {
	if d.N < 0 || d.Elem <= 0 || d.N > math.MaxInt/d.Elem {
		return fmt.Errorf("wire: delta layer with %d elements of %d bytes", d.N, d.Elem)
	}
	if d.Dense {
		if len(d.Changed) != d.N*d.Elem {
			return fmt.Errorf("wire: dense delta carries %d bytes, want %d", len(d.Changed), d.N*d.Elem)
		}
		return nil
	}
	if want := (d.N + 7) / 8; len(d.Mask) != want {
		return fmt.Errorf("wire: delta bitmask %d bytes for %d elements, want %d", len(d.Mask), d.N, want)
	}
	// Bits beyond N must be clear: a set spare bit means a corrupt or
	// adversarial mask whose popcount no longer matches the payload.
	if spare := d.N % 8; spare != 0 && d.Mask[len(d.Mask)-1]>>spare != 0 {
		return fmt.Errorf("wire: delta bitmask has bits set beyond element %d", d.N)
	}
	changed := 0
	for _, b := range d.Mask {
		changed += bits.OnesCount8(b)
	}
	if len(d.Changed) != changed*d.Elem {
		return fmt.Errorf("wire: delta carries %d bytes for %d changed elements of %d",
			len(d.Changed), changed, d.Elem)
	}
	return nil
}

// Apply turns the round t−1 payload prev into the round-t payload in
// place and returns it: a sparse record patches the changed elements of
// prev, a dense one overwrites prev with Changed, in prev's storage
// when it is large enough (whatever prev's length) and in a new slice
// otherwise. Its caller keeps the result as its shadow in place of
// prev. The record is checked before anything is written, so a hostile
// one is an error that leaves prev as it was, never a panic or a
// silently wrong payload.
func (d *DeltaLayer) Apply(prev []byte) ([]byte, error) {
	if err := d.Check(); err != nil {
		return nil, err
	}
	if d.Dense {
		return append(prev[:0], d.Changed...), nil
	}
	if size := d.N * d.Elem; len(prev) != size {
		return nil, fmt.Errorf("wire: sparse delta against %d-byte shadow, want %d", len(prev), size)
	}
	src := 0
	for i := 0; i < d.N; i++ {
		if d.Mask[i/8]&(1<<(i%8)) != 0 {
			copy(prev[i*d.Elem:(i+1)*d.Elem], d.Changed[src:src+d.Elem])
			src += d.Elem
		}
	}
	return prev, nil
}
