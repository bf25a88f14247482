package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The range coder as it stood before its state moved into locals: the
// per-bit coder, the per-byte loops, the two run loops with their
// base+i%stride context pick, and the two frame entry points, copied
// verbatim under ref names. It shares the walker, the model and the
// frame constants with the shipped coder, so
// TestEntropyMatchesReferenceBytewise pins exactly the loops that were
// rewritten.

type refRCEncoder struct {
	out       []byte
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int
}

func (e *refRCEncoder) init(out []byte) {
	e.out = out
	e.low = 0
	e.rng = 0xFFFFFFFF
	e.cache = 0
	e.cacheSize = 1
}

func (e *refRCEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		carry := byte(e.low >> 32)
		e.out = append(e.out, e.cache+carry)
		for ; e.cacheSize > 1; e.cacheSize-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cacheSize = 0
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *refRCEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> 11) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (2048 - *p) >> 5
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> 5
	}
	for e.rng < 1<<24 {
		e.rng <<= 8
		e.shiftLow()
	}
}

func (e *refRCEncoder) encodeByte(m *byteModel, b byte) {
	ctx := 1
	for i := 7; i >= 0; i-- {
		bit := int(b>>uint(i)) & 1
		e.encodeBit(&m[ctx], bit)
		ctx = ctx<<1 | bit
	}
}

func (e *refRCEncoder) flush() {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
}

type refRCDecoder struct {
	in   []byte
	pos  int
	rng  uint32
	code uint32
}

// nextByte returns 0 past the end of the stream instead of failing:
// a truncated stream then decodes to garbage that the walker rejects
// through its structural and length checks.
func (d *refRCDecoder) nextByte() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	d.pos++
	return 0
}

func (d *refRCDecoder) init(in []byte) {
	d.in = in
	d.pos = 0
	d.rng = 0xFFFFFFFF
	d.code = 0
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
}

func (d *refRCDecoder) decodeBit(p *uint16) int {
	bound := (d.rng >> 11) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (2048 - *p) >> 5
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> 5
		bit = 1
	}
	for d.rng < 1<<24 {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return bit
}

func (d *refRCDecoder) decodeByte(m *byteModel) byte {
	ctx := 1
	for i := 0; i < 8; i++ {
		ctx = ctx<<1 | d.decodeBit(&m[ctx])
	}
	return byte(ctx)
}

type refEncStream struct {
	src []byte
	off int
	rc  *refRCEncoder
	m   *entropyModel
}

func (s *refEncStream) u8(ctx int) (byte, error) {
	if s.off >= len(s.src) {
		return 0, fmt.Errorf("wire: entropy encode ran past frame end")
	}
	b := s.src[s.off]
	s.off++
	s.rc.encodeByte(&s.m.probs[ctx], b)
	return b, nil
}

func (s *refEncStream) uvarint() (uint64, error) {
	var u uint64
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			return 0, fmt.Errorf("wire: entropy encode: varint too long")
		}
		b, err := s.u8(ctxNum)
		if err != nil {
			return 0, err
		}
		u |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return u, nil
		}
	}
}

func (s *refEncStream) run(base, n, stride int) error {
	if n > s.remaining() {
		return fmt.Errorf("wire: entropy encode: run past frame end")
	}
	for i := 0; i < n; i++ {
		s.rc.encodeByte(&s.m.probs[base+i%stride], s.src[s.off+i])
	}
	s.off += n
	return nil
}

func (s *refEncStream) remaining() int { return len(s.src) - s.off }

type refDecStream struct {
	out   []byte
	limit int
	rc    *refRCDecoder
	m     *entropyModel
}

func (s *refDecStream) u8(ctx int) (byte, error) {
	if len(s.out) >= s.limit {
		return 0, fmt.Errorf("wire: entropy frame decodes past its declared length")
	}
	b := s.rc.decodeByte(&s.m.probs[ctx])
	s.out = append(s.out, b)
	return b, nil
}

func (s *refDecStream) uvarint() (uint64, error) {
	var u uint64
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			return 0, fmt.Errorf("wire: entropy decode: varint too long")
		}
		b, err := s.u8(ctxNum)
		if err != nil {
			return 0, err
		}
		u |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return u, nil
		}
	}
}

func (s *refDecStream) run(base, n, stride int) error {
	if n > s.remaining() {
		return fmt.Errorf("wire: entropy frame declares %d-byte run with %d budget", n, s.remaining())
	}
	for i := 0; i < n; i++ {
		s.out = append(s.out, s.rc.decodeByte(&s.m.probs[base+i%stride]))
	}
	return nil
}

func (s *refDecStream) remaining() int { return s.limit - len(s.out) }

// refEntropyCompress re-encodes a plain frame (as produced by Encode or
// AppendEncode) through the range coder. It returns the entropy frame
// when that is strictly smaller, and the input unchanged otherwise —
// including when the frame contains structures the walker does not
// model. The choice is deterministic, so seeded runs stay reproducible.
func refEntropyCompress(plain []byte) []byte {
	if len(plain) < 2 || plain[0] != Version || plain[1] == tEntropy {
		return plain
	}
	m := entropyModelPool.Get().(*entropyModel)
	m.reset()
	defer entropyModelPool.Put(m)
	out := make([]byte, 0, len(plain))
	out = append(out, Version, tEntropy)
	out = binary.AppendUvarint(out, uint64(len(plain)-1))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(plain[1:], entropyCRC))
	var rc refRCEncoder
	rc.init(out)
	s := &refEncStream{src: plain[1:], rc: &rc, m: m}
	if err := walkValue(s, 0); err != nil || s.off != len(s.src) {
		return plain
	}
	rc.flush()
	if len(rc.out) >= len(plain) {
		return plain
	}
	return rc.out
}

// refEntropyExpand recovers the plain frame from an entropy frame. For
// plain input it returns (data, false, nil) untouched. The returned
// slice is always freshly allocated — never an alias of data — so
// decoded values may safely alias *it* even when data lives in a
// pooled transport buffer.
func refEntropyExpand(data []byte) (plain []byte, wasEntropy bool, err error) {
	if !IsEntropy(data) {
		return data, false, nil
	}
	u, n := binary.Uvarint(data[2:])
	if n <= 0 {
		return nil, true, fmt.Errorf("wire: entropy frame: bad inner length")
	}
	if u > uint64(entropyMaxExpand*(len(data)+1)) || u > 1<<31 {
		return nil, true, fmt.Errorf("wire: entropy frame: implausible inner length %d for %d-byte frame", u, len(data))
	}
	inner := int(u)
	if len(data) < 2+n+4 {
		return nil, true, fmt.Errorf("wire: entropy frame: truncated header")
	}
	sum := binary.LittleEndian.Uint32(data[2+n:])
	m := entropyModelPool.Get().(*entropyModel)
	m.reset()
	defer entropyModelPool.Put(m)
	var rc refRCDecoder
	rc.init(data[2+n+4:])
	out := make([]byte, 1, inner+1)
	out[0] = Version
	s := &refDecStream{out: out, limit: inner + 1, rc: &rc, m: m}
	if err := walkValue(s, 0); err != nil {
		return nil, true, err
	}
	if len(s.out) != inner+1 {
		return nil, true, fmt.Errorf("wire: entropy frame declares %d bytes, decoded %d", inner, len(s.out)-1)
	}
	if got := crc32.Checksum(s.out[1:], entropyCRC); got != sum {
		return nil, true, fmt.Errorf("wire: entropy frame checksum mismatch")
	}
	return s.out, true, nil
}

// refDeltaRecord mirrors core.DeltaUpload / core.DownlinkDelta (core
// imports wire, so the test cannot name them): scalar fields, a bool,
// and per layer a mode, a scale and a DeltaLayer whose Mask and Changed
// travel as tBytes runs.
type refDeltaRecord struct {
	DeviceID int
	Round    int
	Discard  int
	Done     bool
	Layers   []refDeltaLayer
}

type refDeltaLayer struct {
	Mode  int
	Scale float64
	Delta DeltaLayer
}

// refFrames builds seeded plain frames of every kind the walker models.
func refFrames(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	f32s := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64())
		}
		return out
	}
	f64s := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}
	// A packed layer of n elem-byte elements and a successor differing
	// in an odd number of them, so with elem 1 or 2 the Changed run's
	// length is not a multiple of the tBytes lane count (4).
	delta := func(n, elem, changed int) DeltaLayer {
		prev := make([]byte, n*elem)
		rng.Read(prev)
		cur := append([]byte(nil), prev...)
		for _, i := range rng.Perm(n)[:changed] {
			cur[i*elem] ^= 0x5A
		}
		return DiffLayer(prev, cur, elem)
	}
	record := func(layers ...DeltaLayer) refDeltaRecord {
		r := refDeltaRecord{DeviceID: 5, Round: 3, Discard: 4, Done: true}
		for i, d := range layers {
			r.Layers = append(r.Layers, refDeltaLayer{Mode: 1 + i%3, Scale: 0.5 + rng.Float64(), Delta: d})
		}
		return r
	}
	noise := make([]byte, 64)
	rng.Read(noise)
	values := map[string]any{
		"dense-f32": benchPayload{DeviceID: 9, Layers: [][]float32{f32s(17), f32s(5), f32s(1201)}},
		"dense-f64": struct{ Layers [][]float64 }{[][]float64{f64s(33), f64s(2), f64s(700)}},
		"scalars": struct {
			A    float64
			B    float32
			C    int
			D    uint
			E, F bool
			G    *inner
		}{math.Pi, -1.5, -77, 1 << 40, true, false, nil},
		"delta-up":   record(delta(1001, 1, 37), delta(513, 2, 101), delta(300, 4, 7)),
		"delta-down": record(delta(75, 1, 75), DiffLayer(nil, noise[:63], 1), delta(999, 2, 1)),
		"mixed":      makeEntropyPayload(rng, 300),
		"sample":     testSample(),
		"nested": struct {
			L [][]string
			M map[string][]int
			N map[int]map[string]float64
		}{[][]string{{"a", "bc"}, {}, {"def"}}, map[string][]int{"x": {1, -2, 300}, "y": nil}, map[int]map[string]float64{1: {"p": 0.25}, 2: {}}},
		"bools-ints": struct {
			B []bool
			I []int
			U []uint32
		}{make([]bool, 1003), rng.Perm(257), []uint32{0, 1, 1 << 31}},
		"no-shrink":   noise,
		"long-string": strings.Repeat("importance ", 40),
	}
	frames := make(map[string][]byte, len(values))
	for name, v := range values {
		plain, err := Encode(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames[name] = plain
	}
	return frames
}

// corruptStreams returns the damaged copies TestEntropyExpandRejectsCorrupt
// feeds the decoder — prefixes, a flipped length byte, a flipped byte
// every flipStep positions — plus every prefix of a short frame and a
// hundred-odd evenly spaced ones of a long frame.
func corruptStreams(coded []byte, flipStep int) [][]byte {
	var out [][]byte
	for cut := 2; cut < len(coded); cut += 1 + len(coded)/128 {
		out = append(out, coded[:cut])
	}
	out = append(out, coded[:len(coded)/2], coded[:len(coded)-1])
	flip := func(i int, x byte) {
		bad := append([]byte(nil), coded...)
		bad[i] ^= x
		out = append(out, bad)
	}
	flip(2, 0x7F)
	for i := 2; i < len(coded); i += flipStep {
		flip(i, 0xA5)
	}
	return out
}

// TestEntropyMatchesReferenceBytewise pins the shipped range coder to
// the one it replaced: identical compressed bytes, identical expanded
// frames, and on damaged streams the same verdict — never a success in
// one coder only.
func TestEntropyMatchesReferenceBytewise(t *testing.T) {
	shrank := 0
	for name, plain := range refFrames(t) {
		coded, ref := EntropyCompress(plain), refEntropyCompress(plain)
		if !bytes.Equal(coded, ref) {
			t.Fatalf("%s: compressed bytes differ from the reference coder (%d vs %d bytes)", name, len(coded), len(ref))
		}
		if name == "no-shrink" && IsEntropy(coded) {
			t.Fatalf("%s: expected the plain frame back", name)
		}
		if !IsEntropy(coded) {
			continue
		}
		shrank++
		flipStep := 5 + len(coded)/64
		if name == "mixed" {
			flipStep = 5 // exactly that test's streams
		}
		for _, stream := range append(corruptStreams(coded, flipStep), coded) {
			got, _, err := EntropyExpand(stream)
			want, _, refErr := refEntropyExpand(stream)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: %d-byte stream: shipped coder says %v, reference says %v", name, len(stream), err, refErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: %d-byte stream expands differently through the two coders", name, len(stream))
			}
		}
		if back, _, err := EntropyExpand(coded); err != nil || !bytes.Equal(back, plain) {
			t.Fatalf("%s: round trip: %v", name, err)
		}
	}
	if shrank < 8 {
		t.Fatalf("only %d frames compressed; the comparison needs entropy frames", shrank)
	}
}

// TestEntropyRejectsOverflowingRun: a []bool count near MaxInt64 passes
// the walker's length check (bools have no per-element byte floor) and
// overflows (n+7)/8 to a negative run length. Both directions must
// refuse it — the decoder now indexes its output by run length.
func TestEntropyRejectsOverflowingRun(t *testing.T) {
	plain := binary.AppendUvarint([]byte{Version, tBools}, math.MaxInt64)
	if got := EntropyCompress(plain); !bytes.Equal(got, plain) {
		t.Fatal("unwalkable frame was not returned plain")
	}
	m := new(entropyModel)
	m.reset()
	frame := binary.AppendUvarint([]byte{Version, tEntropy}, uint64(len(plain)-1))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(plain[1:], entropyCRC))
	var rc rcEncoder
	rc.init(frame)
	rc.encodeByte(&m.probs[ctxTag], tBools)
	for _, b := range plain[2:] {
		rc.encodeByte(&m.probs[ctxNum], b)
	}
	rc.flush()
	if _, _, err := EntropyExpand(rc.out); err == nil {
		t.Fatal("negative run length accepted")
	}
}
