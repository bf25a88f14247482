package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// mass ranking.
func packLayers(layers [][]float64, mode QuantMode) ([]packedLayer, error) {
	modes := layerModes(layers, mode)
	out := make([]packedLayer, len(layers))
	for i, l := range layers {
		m := modes[i]
		if m == QuantLossless {
			data := make([]byte, 4*len(l))
			for j, v := range l {
				binary.LittleEndian.PutUint32(data[4*j:], math.Float32bits(float32(v)))
			}
			out[i] = packedLayer{mode: m, data: data}
			continue
		}
		data, scale, err := quantizeLane(l, m, mode)
		if err != nil {
			return nil, err
		}
		out[i] = packedLayer{mode: m, scale: scale, data: data}
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

// deltaEncoder is the sending side of a delta exchange — a device's
// importance uplink or the edge's per-device personalized-set downlink.
// It keeps the packed form of the last payload the peer has (both loops
// are synchronous, so last-sent is last-acked) and emits each round as
// deltas against it. A topK fraction in (0,1) makes it the top-k uplink
// encoder (encodeTopK), which ignores mode.
type deltaEncoder struct {
	mode QuantMode
	topK float64
	prev []packedLayer
}

// encodeLayers packs layers under the encoder's mode and expresses each
// layer as a delta against the previous round where that is valid and
// smaller.
func (e *deltaEncoder) encodeLayers(layers [][]float64) ([]DeltaLayerPayload, error) {
	if e.topK > 0 {
		return e.encodeTopK(layers), nil
	}
	cur, err := packLayers(layers, e.mode)
	if err != nil {
		return nil, err
	}
	out := make([]DeltaLayerPayload, len(cur))
	for i, c := range cur {
		es := elemSize(c.mode)
		pl := DeltaLayerPayload{Mode: c.mode, Scale: c.scale}
		// A sparse delta is only meaningful when the previous layer has
		// the same packed interpretation: same lane, same int8 scale,
		// same length. DiffLayer additionally falls back to dense when
		// the sparse form would not be smaller.
		if i < len(e.prev) && e.prev[i].mode == c.mode && e.prev[i].scale == c.scale {
			pl.Delta = wire.DiffLayer(e.prev[i].data, c.data, es)
		} else {
			pl.Delta = wire.DeltaLayer{N: len(c.data) / es, Elem: es, Dense: true, Changed: c.data}
		}
		out[i] = pl
	}
	e.prev = cur
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
	if len(e.prev) != len(layers) {
		e.prev = make([]packedLayer, len(layers))
	}
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

// deltaDecoder is the receiving side: the shadow copy of the last
// reconstructed packed payload (per device on the edge, per downlink on
// the device).
type deltaDecoder struct {
	prev []packedLayer
}

// apply reconstructs the dense float64 layers of pls against the shadow,
// into rows cut from l (allocated when l is nil), and advances the
// shadow one round. Every field is wire-controlled;
// shape, mode, and scale are validated before any allocation or
// indexing derived from them. zeroStart is the top-k uplink's rule: a
// chain starts from an all-zero shadow, so a sparse record with no
// shadow round applies against zeros; otherwise it is refused.
func (d *deltaDecoder) apply(pls []DeltaLayerPayload, zeroStart bool, l *nn.Lease) ([][]float64, error) {
	if d.prev != nil && len(d.prev) != len(pls) {
		return nil, fmt.Errorf("core: delta payload has %d layers, shadow has %d", len(pls), len(d.prev))
	}
	if d.prev == nil {
		d.prev = make([]packedLayer, len(pls))
	}
	out := make([][]float64, len(pls))
	for i, pl := range pls {
		if !pl.Mode.Valid() || pl.Mode == QuantMixed {
			return nil, fmt.Errorf("core: delta layer %d carries non-concrete mode %v", i, pl.Mode)
		}
		es := elemSize(pl.Mode)
		if pl.Delta.Elem != es {
			return nil, fmt.Errorf("core: delta layer %d element size %d does not match mode %v (%d)",
				i, pl.Delta.Elem, pl.Mode, es)
		}
		var prevData []byte
		switch {
		case pl.Delta.Dense:
		case d.prev[i].data != nil:
			if d.prev[i].mode != pl.Mode || d.prev[i].scale != pl.Scale {
				return nil, fmt.Errorf("core: sparse delta for layer %d changes mode/scale (%v/%g → %v/%g)",
					i, d.prev[i].mode, d.prev[i].scale, pl.Mode, pl.Scale)
			}
			prevData = d.prev[i].data
		case !zeroStart:
			return nil, fmt.Errorf("core: sparse delta for layer %d with no shadow round", i)
		default:
			// The zeros are sized by the record's N, which only a record
			// that passes Check (a mask of ⌈N/8⌉ bytes) has vouched for.
			if err := pl.Delta.Check(); err != nil {
				return nil, fmt.Errorf("core: delta layer %d: %w", i, err)
			}
			prevData = make([]byte, pl.Delta.N*es)
		}
		data, err := pl.Delta.Apply(prevData)
		if err != nil {
			return nil, fmt.Errorf("core: delta layer %d: %w", i, err)
		}
		d.prev[i] = packedLayer{mode: pl.Mode, scale: pl.Scale, data: data}
		row, err := unpackLayerInto(l, d.prev[i])
		if err != nil {
			return nil, fmt.Errorf("core: delta layer %d: %w", i, err)
		}
		out[i] = row
	}
	return out, nil
}
