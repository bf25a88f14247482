// Entropy coding: an optional, lossless re-encoding of a plain wire
// frame through an adaptive binary range coder (the carryless LZMA
// construction) driven by a structural walk of the self-describing
// format. The walker assigns every byte a model context from its role
// in the frame — tag bytes, varint bytes, and each byte *plane* of
// packed float payloads get their own adaptive order-0 model — which
// is what makes dense float traffic compressible at all: the sign/
// exponent planes of Gaussian-ish payloads are highly skewed even when
// the mantissa planes are incompressible noise.
//
// The coding is deterministic and self-contained per frame (models
// reset every call), and strictly optional on the wire: a frame that
// does not shrink is sent plain, and Decode accepts both forms, so an
// entropy-enabled sender interoperates with any receiver.
//
// Entropy frame layout:
//
//	frame := version(1) tEntropy(1) uvarint(innerLen) crc32c(4, LE) rcStream
//
// where innerLen is the byte length of the plain frame's value part
// (everything after the version byte), crc32c is the Castagnoli
// checksum of those bytes, and rcStream is their range-coded
// re-encoding. The checksum makes corruption and truncation detection
// deterministic: an adaptive arithmetic stream truncated near its end
// can otherwise decode cleanly to silently different trailing bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

var entropyCRC = crc32.MakeTable(crc32.Castagnoli)

// tEntropy marks an entropy-coded frame. It lives in the same tag
// space as the value tags so the decoder can self-detect it from the
// second byte of a frame.
const tEntropy = 0x11

// Model contexts. Each context is an independent adaptive order-0
// byte model; the structural walker picks the context from the byte's
// role in the frame.
const (
	ctxTag   = iota // type tag bytes
	ctxNum          // varint bytes: lengths, ints, uints
	ctxStr          // string bytes
	ctxBool         // bit-packed bool bytes
	ctxBytes        // raw []byte runs: 4 contexts cycling i%4 so
	// 2-byte (float16) and 4-byte element packings each
	// see per-plane statistics
	_
	_
	_
	ctxF32 // packed float32 planes: 4 contexts, one per byte lane
	_
	_
	_
	ctxF64 // packed float64 planes: 8 contexts, one per byte lane
	_
	_
	_
	_
	_
	_
	_
	numCtx
)

// entropyMaxDepth bounds walker recursion on attacker-controlled
// input. The plain decoder is type-directed so it needs no such cap;
// the walker follows the frame's own structure and must not let a
// stream of nested list tags grow the stack without bound.
const entropyMaxDepth = 200

// entropyMaxExpand bounds how much larger than the coded stream a
// claimed inner length may be. The adaptive coder spends at least
// ~0.17 bits per coded byte (probabilities saturate near 2017/2048),
// so genuine frames never exceed ~46× expansion; 64× leaves margin
// while keeping a corrupt length from provoking a huge allocation.
const entropyMaxExpand = 64

// byteModel is a bit-tree of 255 adaptive binary probabilities (11-bit,
// index 0 unused) coding one byte in 8 context-extended bit decisions.
type byteModel [256]uint16

// entropyModel is the full per-frame model state, pooled to keep the
// hot path allocation-free.
type entropyModel struct {
	probs [numCtx]byteModel
}

func (m *entropyModel) reset() {
	for c := range m.probs {
		p := &m.probs[c]
		for i := range p {
			p[i] = 1024
		}
	}
}

var entropyModelPool = sync.Pool{New: func() any { return new(entropyModel) }}

// --- range coder --------------------------------------------------

type rcEncoder struct {
	out       []byte
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int
}

func (e *rcEncoder) init(out []byte) {
	e.out = out
	e.low = 0
	e.rng = 0xFFFFFFFF
	e.cache = 0
	e.cacheSize = 1
}

// shiftLow moves the top byte of low towards the output, resolving a
// pending carry through the cache byte and the run of 0xFF bytes behind
// it, and returns low shifted up one byte. low travels through the
// arguments so encodeByte can keep it in a register across a byte.
func (e *rcEncoder) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		e.out = append(e.out, e.cache+carry)
		for ; e.cacheSize > 1; e.cacheSize-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cacheSize = 0
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// encodeByte codes b's eight bits, most significant first, each under
// the bit-tree node its predecessors select. The coder state lives in
// locals for the whole byte and is stored back once. The bit selects the
// interval half and the model update through a mask rather than a branch:
// on the mantissa planes of float payloads, most of what crosses the
// wire, a branch on the bit mispredicts about as often as not.
func (e *rcEncoder) encodeByte(m *byteModel, b byte) {
	low, rng := e.low, e.rng
	ctx := uint(1)
	for i := 7; i >= 0; i-- {
		bit := uint32(b>>uint(i)) & 1
		mask := -bit // all ones for a 1 bit
		p := uint32(m[ctx&0xFF])
		bound := (rng >> 11) * p
		low += uint64(bound & mask)
		rng = bound + (rng-bound-bound)&mask // bound for 0, rng-bound for 1
		p0, p1 := p+(2048-p)>>5, p-p>>5
		m[ctx&0xFF] = uint16(p0 ^ (p0^p1)&mask)
		ctx = ctx<<1 | uint(bit)
		for rng < 1<<24 {
			rng <<= 8
			low = e.shiftLow(low)
		}
	}
	e.low, e.rng = low, rng
}

func (e *rcEncoder) flush() {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
}

type rcDecoder struct {
	in   []byte
	pos  int
	rng  uint32
	code uint32
}

// nextByte returns 0 past the end of the stream instead of failing:
// a truncated stream then decodes to garbage that the walker rejects
// through its structural and length checks.
func (d *rcDecoder) nextByte() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	d.pos++
	return 0
}

func (d *rcDecoder) init(in []byte) {
	d.in = in
	d.pos = 0
	d.rng = 0xFFFFFFFF
	d.code = 0
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
}

// decodeByte mirrors encodeByte: eight bit decisions down the bit-tree,
// the coder state in locals for the whole byte, the decoded bit applied
// through a mask.
func (d *rcDecoder) decodeByte(m *byteModel) byte {
	rng, code := d.rng, d.code
	ctx := uint(1)
	for i := 0; i < 8; i++ {
		p := uint32(m[ctx&0xFF])
		bound := (rng >> 11) * p
		var bit uint32
		if code >= bound {
			bit = 1
		}
		mask := -bit
		code -= bound & mask
		rng = bound + (rng-bound-bound)&mask
		p0, p1 := p+(2048-p)>>5, p-p>>5
		m[ctx&0xFF] = uint16(p0 ^ (p0^p1)&mask)
		ctx = ctx<<1 | uint(bit)
		for rng < 1<<24 {
			rng <<= 8
			code = code<<8 | uint32(d.nextByte())
		}
	}
	d.rng, d.code = rng, code
	return byte(ctx)
}

// --- structural walker --------------------------------------------

// estream abstracts one direction of the coded stream so the encoder
// and decoder share a single structural walk: the encoder reads plain
// bytes and codes them, the decoder decodes bytes and appends them to
// the plain output. Both sides must take identical context decisions,
// which sharing the walk guarantees by construction.
type estream interface {
	// u8 transfers one byte under ctx.
	u8(ctx int) (byte, error)
	// uvarint transfers the bytes of one varint under ctxNum and
	// returns its value.
	uvarint() (uint64, error)
	// run transfers n bytes cycling contexts base..base+stride-1.
	run(base, n, stride int) error
	// remaining is the transfer budget left, used to reject
	// implausible lengths before looping on them.
	remaining() int
}

type encStream struct {
	src []byte
	off int
	rc  *rcEncoder
	m   *entropyModel
}

func (s *encStream) u8(ctx int) (byte, error) {
	if s.off >= len(s.src) {
		return 0, fmt.Errorf("wire: entropy encode ran past frame end")
	}
	b := s.src[s.off]
	s.off++
	s.rc.encodeByte(&s.m.probs[ctx], b)
	return b, nil
}

func (s *encStream) uvarint() (uint64, error) {
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

func (s *encStream) run(base, n, stride int) error {
	if n < 0 || n > s.remaining() {
		return fmt.Errorf("wire: entropy encode: run past frame end")
	}
	lanes, lane := s.m.probs[base:base+stride], 0
	for _, b := range s.src[s.off : s.off+n] {
		s.rc.encodeByte(&lanes[lane], b)
		if lane++; lane == len(lanes) {
			lane = 0
		}
	}
	s.off += n
	return nil
}

func (s *encStream) remaining() int { return len(s.src) - s.off }

type decStream struct {
	out   []byte
	limit int
	rc    *rcDecoder
	m     *entropyModel
}

func (s *decStream) u8(ctx int) (byte, error) {
	if len(s.out) >= s.limit {
		return 0, fmt.Errorf("wire: entropy frame decodes past its declared length")
	}
	b := s.rc.decodeByte(&s.m.probs[ctx])
	s.out = append(s.out, b)
	return b, nil
}

func (s *decStream) uvarint() (uint64, error) {
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

func (s *decStream) run(base, n, stride int) error {
	if n < 0 || n > s.remaining() {
		return fmt.Errorf("wire: entropy frame declares %d-byte run with %d budget", n, s.remaining())
	}
	// The budget check above keeps the run inside out's capacity
	// (limit bytes, set by EntropyExpand), so extend once and index.
	dst := s.out[len(s.out) : len(s.out)+n]
	s.out = s.out[:len(s.out)+n]
	lanes, lane := s.m.probs[base:base+stride], 0
	for i := range dst {
		dst[i] = s.rc.decodeByte(&lanes[lane])
		if lane++; lane == len(lanes) {
			lane = 0
		}
	}
	return nil
}

func (s *decStream) remaining() int { return s.limit - len(s.out) }

// walkLen reads a sequence length and rejects values that could not
// fit the remaining transfer budget (each unit occupies at least
// minBytes), mirroring decoder.seqLen.
func walkLen(s estream, minBytes int) (int, error) {
	u, err := s.uvarint()
	if err != nil {
		return 0, err
	}
	n := int(u)
	if n < 0 || (minBytes > 0 && n > s.remaining()/minBytes+1) {
		return 0, fmt.Errorf("wire: entropy walk: implausible length %d", u)
	}
	return n, nil
}

// walkValue transfers one encoded value through s, assigning contexts
// from the frame's own structure.
func walkValue(s estream, depth int) error {
	if depth > entropyMaxDepth {
		return fmt.Errorf("wire: entropy walk: nesting deeper than %d", entropyMaxDepth)
	}
	tag, err := s.u8(ctxTag)
	if err != nil {
		return err
	}
	switch tag {
	case tFalse, tTrue:
		return nil
	case tInt, tUint:
		_, err := s.uvarint()
		return err
	case tF64:
		return s.run(ctxF64, 8, 8)
	case tString:
		n, err := walkLen(s, 1)
		if err != nil {
			return err
		}
		return s.run(ctxStr, n, 1)
	case tBytes:
		n, err := walkLen(s, 1)
		if err != nil {
			return err
		}
		return s.run(ctxBytes, n, 4)
	case tF64s:
		n, err := walkLen(s, 8)
		if err != nil {
			return err
		}
		if n > s.remaining()/8 {
			return fmt.Errorf("wire: entropy walk: implausible float64 count %d", n)
		}
		return s.run(ctxF64, 8*n, 8)
	case tF32s:
		n, err := walkLen(s, 4)
		if err != nil {
			return err
		}
		if n > s.remaining()/4 {
			return fmt.Errorf("wire: entropy walk: implausible float32 count %d", n)
		}
		return s.run(ctxF32, 4*n, 4)
	case tBools:
		n, err := walkLen(s, 0)
		if err != nil {
			return err
		}
		return s.run(ctxBool, (n+7)/8, 1)
	case tInts:
		n, err := walkLen(s, 1)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := s.uvarint(); err != nil {
				return err
			}
		}
		return nil
	case tList, tStruct:
		n, err := walkLen(s, 1)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := walkValue(s, depth+1); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("wire: entropy walk: unknown %s", tagName(tag))
	}
}

// --- frame entry points -------------------------------------------

// IsEntropy reports whether data carries an entropy-coded frame.
func IsEntropy(data []byte) bool {
	return len(data) >= 2 && data[0] == Version && data[1] == tEntropy
}

// EntropyInfo returns the plain (pre-entropy) frame size an entropy
// frame declares, or 0, false for plain frames. The stats layer uses
// it to report binary-vs-entropy bytes per kind without re-expanding.
func EntropyInfo(data []byte) (plainLen int, ok bool) {
	if !IsEntropy(data) {
		return 0, false
	}
	u, n := binary.Uvarint(data[2:])
	if n <= 0 || u > 1<<31 {
		return 0, false
	}
	return int(u) + 1, true
}

// EntropyCompress re-encodes a plain frame (as produced by Encode or
// EncodeLeased) through the range coder. It returns the entropy frame
// when that is strictly smaller, and the input unchanged otherwise —
// including when the frame contains structures the walker does not
// model. The choice is deterministic, so seeded runs stay reproducible.
func EntropyCompress(plain []byte) []byte {
	if !compressible(plain) {
		return plain
	}
	if out, ok := appendEntropy(make([]byte, 0, len(plain)), plain); ok {
		return out
	}
	return plain
}

// compressible reports whether plain is a plain frame the coder may
// take on.
func compressible(plain []byte) bool {
	return len(plain) >= 2 && plain[0] == Version && plain[1] != tEntropy
}

// appendEntropy appends plain's entropy frame to dst. ok is false when
// that frame is not strictly smaller than plain or plain holds a
// structure the walker does not model; out is then garbage past dst.
func appendEntropy(dst, plain []byte) (out []byte, ok bool) {
	m := entropyModelPool.Get().(*entropyModel)
	m.reset()
	defer entropyModelPool.Put(m)
	out = append(dst, Version, tEntropy)
	out = binary.AppendUvarint(out, uint64(len(plain)-1))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(plain[1:], entropyCRC))
	var rc rcEncoder
	rc.init(out)
	s := &encStream{src: plain[1:], rc: &rc, m: m}
	if err := walkValue(s, 0); err != nil || s.off != len(s.src) {
		return rc.out, false
	}
	rc.flush()
	return rc.out, len(rc.out)-len(dst) < len(plain)
}

// EntropyExpand recovers the plain frame from an entropy frame. For
// plain input it returns (data, false, nil) untouched. The returned
// slice is always freshly allocated — never an alias of data — so
// decoded values may safely alias *it* even when data lives in a
// pooled transport buffer.
func EntropyExpand(data []byte) (plain []byte, wasEntropy bool, err error) {
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
	var rc rcDecoder
	rc.init(data[2+n+4:])
	out := make([]byte, 1, inner+1)
	out[0] = Version
	s := &decStream{out: out, limit: inner + 1, rc: &rc, m: m}
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
