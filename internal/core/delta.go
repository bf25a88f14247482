package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"acme/internal/nn"
	"acme/internal/wire"
)

// This file implements the stateful, delta-aware Phase 2-2 importance
// exchange (WireOptions.deltaRecords: Config.Wire.DeltaImportance, any
// quantized mode, or top-k). Both endpoints hold the previous round's payload
// in its packed byte form; round-t uploads then travel as
// wire.DeltaLayer records — a changed-index bitmask plus the packed
// elements at changed positions — with a dense per-layer fallback when
// the delta would not be smaller (or when no previous round exists,
// or when an int8 scale changed between rounds). The dense fallback is
// also the only wire form of a packed float16/int8 layer. Deltas are
// computed and applied bitwise on the packed representation, so a
// delta-encoded exchange reconstructs exactly the values a dense
// lossless exchange would have: seeded runs produce bitwise-identical
// Results with DeltaImportance on or off. Top-k is the one lossy
// encoder policy over the same records (deltaEncoder.encodeTopK).

// packedLayer is the byte-level wire representation of one importance
// layer under a concrete quantization mode: raw little-endian float32
// for lossless, quantizeValues output for float16/int8.
type packedLayer struct {
	mode  QuantMode
	scale float64
	data  []byte
}

// elemSize returns the packed bytes per element of a concrete mode.
func elemSize(mode QuantMode) int {
	switch mode {
	case QuantFloat16:
		return 2
	case QuantInt8:
		return 1
	default:
		return 4 // lossless ships raw float32
	}
}

// packLayers converts dense float64 layers into their packed wire
// representation under mode, resolving QuantMixed with the set-level
// mass ranking. The layers are packed one after another into dst's
// storage, which is grown when it is short (4 bytes per value always
// suffices); each layer's data is a slice of it.
func packLayers(dst []byte, layers [][]float64, mode QuantMode) ([]packedLayer, error) {
	modes := layerModes(layers, mode)
	out := make([]packedLayer, len(layers))
	dst = dst[:0]
	for i, l := range layers {
		m := modes[i]
		start := len(dst)
		var scale float64
		if m == QuantLossless {
			for _, v := range l {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
			}
		} else {
			var err error
			if dst, scale, err = quantizeLane(dst, l, m, mode); err != nil {
				return nil, err
			}
		}
		out[i] = packedLayer{mode: m, scale: scale, data: dst[start:len(dst):len(dst)]}
	}
	return out, nil
}

// unpackLayerInto reverses packLayers for one layer, into a row cut
// from l (allocated when l is nil). A lossless layer yields the exact
// float64 values the dense decode path (dequantizeSetInto) produces.
func unpackLayerInto(l *nn.Lease, p packedLayer) ([]float64, error) {
	es := elemSize(p.mode)
	if len(p.data)%es != 0 {
		return nil, fmt.Errorf("core: packed layer of %d bytes not a multiple of element size %d", len(p.data), es)
	}
	row := l.F64s(len(p.data) / es)
	if p.mode == QuantLossless {
		for j := range row {
			row[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p.data[4*j:])))
		}
		return row, nil
	}
	if err := dequantizeValues(row, p.data, p.scale, p.mode); err != nil {
		return nil, err
	}
	return row, nil
}

// DeltaLayerPayload is one layer of a delta-encoded importance upload:
// the concrete quantization lane the layer travels in (QuantMixed is
// resolved sender-side), its int8 scale, and the wire delta record.
type DeltaLayerPayload struct {
	Mode  QuantMode
	Scale float64
	Delta wire.DeltaLayer
}

// DeltaUpload is the device → edge importance set of round Round,
// encoded against the round Round−1 upload (KindImportanceDelta).
// Round 0 — and any layer whose packed shape, mode, or scale changed —
// falls back to the dense form inside the same record.
type DeltaUpload struct {
	DeviceID int
	Round    int
	Layers   []DeltaLayerPayload
}

// DownlinkDelta is the symmetric edge → device record
// (KindImportanceDownDelta): the round-Round personalized set Q'n
// encoded against the round Round−1 downlink, with the same per-layer
// dense fallback as the uplink. Discard and Done travel alongside,
// exactly as they do on the dense PersonalizedSet.
type DownlinkDelta struct {
	Round   int
	Discard int
	Done    bool
	Layers  []DeltaLayerPayload
}

// shadow is one end's packed copy of a delta chain's last payload: the
// layers the next round is diffed against (encoder) or applied to
// (decoder). The layers are cut from one buffer leased from wire's pool
// and overwritten in place round after round; only a new layout (a
// chain's first round, a layer that switched lanes) moves them to a
// fresh lease. warm is false before the first round and after reset,
// which gives the lease back: a cold chain holds no storage.
type shadow struct {
	prev []packedLayer
	buf  *wire.Buffer
	warm bool
}

// reset restarts the chain cold and gives its storage back.
func (s *shadow) reset() {
	s.warm = false
	clear(s.prev)
	s.prev = s.prev[:0]
	if s.buf != nil {
		s.buf.Release()
		s.buf = nil
	}
}

// fit lays prev out for n layers, layer i size(i) bytes long. A warm
// shadow already of that layout stays where it is; otherwise the layers
// move to a fresh lease, a warm one's keeping its content wherever its
// size is unchanged, and the old lease goes back. Modes and scales are
// the caller's to set.
func (s *shadow) fit(n int, size func(i int) int) {
	if s.warm && len(s.prev) == n {
		i := 0
		for i < n && len(s.prev[i].data) == size(i) {
			i++
		}
		if i == n {
			return
		}
	}
	total := 0
	for i := 0; i < n; i++ {
		total += size(i)
	}
	b := wire.Lease(total)
	b.B = slices.Grow(b.B[:0], total)[:total]
	if len(s.prev) != n {
		s.warm = false
		s.prev = slices.Grow(s.prev[:0], n)[:n]
	}
	off := 0
	for i := range s.prev {
		sz := size(i)
		dst := b.B[off : off+sz : off+sz]
		if s.warm && len(s.prev[i].data) == sz {
			copy(dst, s.prev[i].data)
		}
		s.prev[i].data = dst
		off += sz
	}
	if s.buf != nil {
		s.buf.Release()
	}
	s.buf = b
}

// deltaEncoder is the sending side of a delta exchange — a device's
// importance uplink or the edge's per-device personalized-set downlink.
// Its shadow is the packed form of the last payload the peer has (both
// loops are synchronous, so last-sent is last-acked), and it emits each
// round as deltas against it. A topK fraction in (0,1) makes it the
// top-k uplink encoder (encodeTopK), which ignores mode.
type deltaEncoder struct {
	mode QuantMode
	topK float64
	shadow
}

// encodeLayers packs layers under the encoder's mode and expresses each
// layer as a delta against the previous round where that is valid and
// smaller. The round is packed into a leased scratch buffer and then
// copied over the shadow. A dense record's Changed is the shadow
// itself, so the records must be encoded before the next call.
func (e *deltaEncoder) encodeLayers(layers [][]float64) ([]DeltaLayerPayload, error) {
	if e.topK > 0 {
		return e.encodeTopK(layers), nil
	}
	n := 0
	for _, l := range layers {
		n += 4 * len(l)
	}
	scratch := wire.Lease(n)
	defer scratch.Release()
	cur, err := packLayers(scratch.B, layers, e.mode)
	if err != nil {
		return nil, err
	}
	if len(e.prev) != len(cur) {
		e.warm = false
	}
	out := make([]DeltaLayerPayload, len(cur))
	for i, c := range cur {
		out[i] = DeltaLayerPayload{Mode: c.mode, Scale: c.scale}
		// A sparse delta is only meaningful when the previous layer has
		// the same packed interpretation: same lane, same int8 scale,
		// same length. DiffLayer additionally falls back to dense when
		// the sparse form would not be smaller.
		if e.warm && e.prev[i].mode == c.mode && e.prev[i].scale == c.scale {
			out[i].Delta = wire.DiffLayer(e.prev[i].data, c.data, elemSize(c.mode))
		} else {
			out[i].Delta.Dense = true
		}
	}
	e.fit(len(cur), func(i int) int { return len(cur[i].data) })
	for i, c := range cur {
		p := &e.prev[i]
		p.mode, p.scale = c.mode, c.scale
		copy(p.data, c.data)
		if out[i].Delta.Dense {
			es := elemSize(c.mode)
			out[i].Delta = wire.DeltaLayer{N: len(p.data) / es, Elem: es, Dense: true, Changed: p.data}
		}
	}
	e.warm = true
	return out, nil
}

// topKCount is how many of a layer's n entries top-k sparsification at
// fraction sends per round.
func topKCount(n int, fraction float64) int {
	return min(max(int(fraction*float64(n)), 1), n)
}

// encodeTopK is top-k sparsification with memory (error feedback), in
// the float16 lane. Per layer it sends the topKCount entries whose value
// is furthest from the shadow both ends hold (ties to the lower index)
// and advances the shadow only there, so the unsent residual carries
// into the next round. A chain starts from an all-zero shadow: a cold
// round of non-negative importance sends exactly the top k by value.
// An entry whose float16 bits did not change costs nothing on the wire.
func (e *deltaEncoder) encodeTopK(layers [][]float64) []DeltaLayerPayload {
	if !e.warm || len(e.prev) != len(layers) {
		e.prev = make([]packedLayer, len(layers))
	}
	e.warm = true
	out := make([]DeltaLayerPayload, len(layers))
	for i, l := range layers {
		shadow := e.prev[i].data
		if len(shadow) != 2*len(l) {
			shadow = make([]byte, 2*len(l))
		}
		gap := make([]float64, len(l))
		idx := make([]int, len(l))
		for j, v := range l {
			gap[j] = math.Abs(v - float16value(binary.LittleEndian.Uint16(shadow[2*j:])))
			idx[j] = j
		}
		sort.SliceStable(idx, func(a, b int) bool { return gap[idx[a]] > gap[idx[b]] })
		next := append([]byte(nil), shadow...)
		for _, j := range idx[:topKCount(len(l), e.topK)] {
			binary.LittleEndian.PutUint16(next[2*j:], float16bits(l[j]))
		}
		out[i] = DeltaLayerPayload{Mode: QuantFloat16, Delta: wire.DiffLayer(shadow, next, 2)}
		e.prev[i] = packedLayer{mode: QuantFloat16, data: next}
	}
	return out
}

// encode wraps encodeLayers in the uplink record.
func (e *deltaEncoder) encode(deviceID, round int, layers [][]float64) (DeltaUpload, error) {
	pls, err := e.encodeLayers(layers)
	if err != nil {
		return DeltaUpload{}, err
	}
	return DeltaUpload{DeviceID: deviceID, Round: round, Layers: pls}, nil
}

// deltaDecoder is the receiving side: its shadow is the last
// reconstructed packed payload (per device on the edge, per downlink on
// the device), patched in place every round.
type deltaDecoder struct {
	shadow
}

// apply reconstructs the dense float64 layers of pls against the shadow,
// into rows cut from l (allocated when l is nil), and advances the
// shadow one round. Every field is wire-controlled: shape, mode, and
// scale of every layer are validated before the shadow is touched or
// anything derived from them is allocated or indexed, so a refused
// payload leaves the chain as it was. zeroStart is the top-k uplink's
// rule: a chain starts from an all-zero shadow, so a sparse record with
// no shadow round applies against zeros; otherwise it is refused.
func (d *deltaDecoder) apply(pls []DeltaLayerPayload, zeroStart bool, l *nn.Lease) ([][]float64, error) {
	if d.warm && len(d.prev) != len(pls) {
		return nil, fmt.Errorf("core: delta payload has %d layers, shadow has %d", len(pls), len(d.prev))
	}
	for i, pl := range pls {
		if !pl.Mode.Valid() || pl.Mode == QuantMixed {
			return nil, fmt.Errorf("core: delta layer %d carries non-concrete mode %v", i, pl.Mode)
		}
		es := elemSize(pl.Mode)
		if pl.Delta.Elem != es {
			return nil, fmt.Errorf("core: delta layer %d element size %d does not match mode %v (%d)",
				i, pl.Delta.Elem, pl.Mode, es)
		}
		switch {
		case pl.Delta.Dense:
		case d.warm:
			if p := d.prev[i]; p.mode != pl.Mode || p.scale != pl.Scale {
				return nil, fmt.Errorf("core: sparse delta for layer %d changes mode/scale (%v/%g → %v/%g)",
					i, p.mode, p.scale, pl.Mode, pl.Scale)
			}
		case !zeroStart:
			return nil, fmt.Errorf("core: sparse delta for layer %d with no shadow round", i)
		}
		// A record that passes Check has its N backed by the frame (by
		// Changed when dense, by a mask of ⌈N/8⌉ bytes when sparse), so
		// the shadow it asks for costs no more than the frame carried.
		if err := pl.Delta.Check(); err != nil {
			return nil, fmt.Errorf("core: delta layer %d: %w", i, err)
		}
		if size := pl.Delta.N * es; !pl.Delta.Dense && d.warm && len(d.prev[i].data) != size {
			return nil, fmt.Errorf("core: delta layer %d: sparse delta against %d-byte shadow, want %d",
				i, len(d.prev[i].data), size)
		}
	}
	d.fit(len(pls), func(i int) int { return pls[i].Delta.N * pls[i].Delta.Elem })
	warm := d.warm
	d.warm = false
	out := make([][]float64, len(pls))
	for i, pl := range pls {
		p := &d.prev[i]
		if !warm && !pl.Delta.Dense {
			clear(p.data) // top-k's zero start
		}
		data, err := pl.Delta.Apply(p.data)
		if err != nil {
			return nil, fmt.Errorf("core: delta layer %d: %w", i, err)
		}
		*p = packedLayer{mode: pl.Mode, scale: pl.Scale, data: data}
		row, err := unpackLayerInto(l, *p)
		if err != nil {
			return nil, fmt.Errorf("core: delta layer %d: %w", i, err)
		}
		out[i] = row
	}
	d.warm = true
	return out, nil
}
