package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"acme/internal/core"
	"acme/internal/transport"
	"acme/internal/wire"
)

// loopCodec ships importance layers between a device and its edge the
// way one wire configuration does, through the public records and codec
// calls only: dense float32 sets, or lossless delta records against the
// previous round, either one optionally under the entropy coder. Each
// call into wire is a span under parent. (The mixed-precision lanes of
// Config.Wire.Quantization are picked by unexported code in core, so
// the replay ships its deltas lossless.)
type loopCodec struct {
	delta, entropy bool
	tr             *Tracer
	weight         float64
}

// span runs fn as a span of this codec's weight.
func (c loopCodec) span(parent int, name string, fn func() error) error {
	return c.tr.Do(parent, name, c.weight, fn)
}

// packF32 is the little-endian float32 packing the delta records diff.
func packF32(layer []float32) []byte {
	out := make([]byte, 4*len(layer))
	for i, v := range layer {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func unpackF64(data []byte) []float64 {
	out := make([]float64, len(data)/4)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
	}
	return out
}

func widen(layers [][]float32) [][]float64 {
	out := make([][]float64, len(layers))
	for l, layer := range layers {
		out[l] = make([]float64, len(layer))
		for i, v := range layer {
			out[l][i] = float64(v)
		}
	}
	return out
}

func narrow(layers [][]float64) [][]float32 {
	out := make([][]float32, len(layers))
	for l, layer := range layers {
		out[l] = make([]float32, len(layer))
		for i, v := range layer {
			out[l][i] = float32(v)
		}
	}
	return out
}

// diffLayers packs layers and expresses them as deltas against *prev
// (dense when there is no previous round), then advances *prev.
func diffLayers(prev *[][]byte, layers [][]float32) []core.DeltaLayerPayload {
	cur := make([][]byte, len(layers))
	out := make([]core.DeltaLayerPayload, len(layers))
	for l, layer := range layers {
		cur[l] = packF32(layer)
		out[l] = core.DeltaLayerPayload{Mode: core.QuantLossless}
		if *prev != nil {
			out[l].Delta = wire.DiffLayer((*prev)[l], cur[l], 4)
		} else {
			out[l].Delta = wire.DeltaLayer{N: len(layer), Elem: 4, Dense: true, Changed: cur[l]}
		}
	}
	*prev = cur
	return out
}

// applyLayers advances the packed shadow by one delta record and
// returns the reconstructed layers.
func applyLayers(shadow *[][]byte, pls []core.DeltaLayerPayload) ([][]float64, error) {
	if *shadow == nil {
		*shadow = make([][]byte, len(pls))
	}
	if len(*shadow) != len(pls) {
		return nil, fmt.Errorf("delta has %d layers, shadow %d", len(pls), len(*shadow))
	}
	out := make([][]float64, len(pls))
	for l := range pls {
		data, err := pls[l].Delta.Apply((*shadow)[l])
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
		(*shadow)[l] = data
		out[l] = unpackF64(data)
	}
	return out, nil
}

// encode runs v through wire.Encode and, when configured, the entropy
// coder.
func (c loopCodec) encode(parent int, v any) (payload []byte, raw int, err error) {
	err = c.span(parent, "wire.Encode", func() (err error) { payload, err = wire.Encode(v); return err })
	if err == nil && c.entropy {
		_ = c.span(parent, "wire.EntropyCompress", func() error { payload = wire.EntropyCompress(payload); return nil })
	}
	return payload, wire.RawSize(v), err
}

// expand undoes the entropy coder, a no-op on plain frames.
func (c loopCodec) expand(parent int, payload []byte) (plain []byte, err error) {
	if !wire.IsEntropy(payload) {
		return payload, nil
	}
	err = c.span(parent, "wire.EntropyExpand", func() (err error) { plain, _, err = wire.EntropyExpand(payload); return err })
	return plain, err
}

// encodeUp builds device dev's round upload; prev is its uplink shadow.
func (c loopCodec) encodeUp(parent, dev, round int, layers [][]float32, prev *[][]byte) (transport.Kind, []byte, int, error) {
	if !c.delta {
		payload, raw, err := c.encode(parent, core.ImportanceUpload{DeviceID: dev, Layers: layers})
		return transport.KindImportanceSet, payload, raw, err
	}
	var up core.DeltaUpload
	_ = c.span(parent, "wire.DiffLayer", func() error {
		up = core.DeltaUpload{DeviceID: dev, Round: round, Layers: diffLayers(prev, layers)}
		return nil
	})
	payload, raw, err := c.encode(parent, up)
	return transport.KindImportanceDelta, payload, raw, err
}

// decodeUp is the edge's side of encodeUp: it returns the sender's
// device ID and layers. shadow maps a device ID to its uplink shadow.
func (c loopCodec) decodeUp(parent int, msg transport.Message, arena *wire.Arena, shadow func(dev int) *[][]byte) (int, [][]float64, error) {
	plain, err := c.expand(parent, msg.Payload)
	if err != nil {
		return 0, nil, err
	}
	arena.Reset()
	if msg.Kind == transport.KindImportanceSet {
		var up core.ImportanceUpload
		if err := c.span(parent, "wire.DecodeArena", func() error { return wire.DecodeArena(plain, &up, arena) }); err != nil {
			return 0, nil, err
		}
		var layers [][]float64
		_ = c.span(parent, "bench.widen", func() error { layers = widen(up.Layers); return nil })
		return up.DeviceID, layers, nil
	}
	var up core.DeltaUpload
	if err := c.span(parent, "wire.DecodeArena", func() error { return wire.DecodeArena(plain, &up, arena) }); err != nil {
		return 0, nil, err
	}
	var layers [][]float64
	err = c.span(parent, "wire.DeltaLayer.Apply", func() (err error) {
		layers, err = applyLayers(shadow(up.DeviceID), up.Layers)
		return err
	})
	return up.DeviceID, layers, err
}

// encodeDown builds one device's personalized set; prev is the edge's
// downlink shadow for that device.
func (c loopCodec) encodeDown(parent, round int, layers [][]float64, discard int, done bool, prev *[][]byte) (transport.Kind, []byte, int, error) {
	var f32 [][]float32
	_ = c.span(parent, "bench.narrow", func() error { f32 = narrow(layers); return nil })
	if !c.delta {
		payload, raw, err := c.encode(parent, core.PersonalizedSet{Layers: f32, Discard: discard, Done: done})
		return transport.KindPersonalizedSet, payload, raw, err
	}
	var dd core.DownlinkDelta
	_ = c.span(parent, "wire.DiffLayer", func() error {
		dd = core.DownlinkDelta{Round: round, Discard: discard, Done: done, Layers: diffLayers(prev, f32)}
		return nil
	})
	payload, raw, err := c.encode(parent, dd)
	return transport.KindImportanceDownDelta, payload, raw, err
}

// decodeDown is the device's side of encodeDown.
func (c loopCodec) decodeDown(parent int, msg transport.Message, shadow *[][]byte) (layers [][]float64, discard int, err error) {
	plain, err := c.expand(parent, msg.Payload)
	if err != nil {
		return nil, 0, err
	}
	if msg.Kind == transport.KindPersonalizedSet {
		var ps core.PersonalizedSet
		if err := c.span(parent, "wire.Decode", func() error { return wire.Decode(plain, &ps) }); err != nil {
			return nil, 0, err
		}
		_ = c.span(parent, "bench.widen", func() error { layers = widen(ps.Layers); return nil })
		return layers, ps.Discard, nil
	}
	var dd core.DownlinkDelta
	if err := c.span(parent, "wire.Decode", func() error { return wire.Decode(plain, &dd) }); err != nil {
		return nil, 0, err
	}
	err = c.span(parent, "wire.DeltaLayer.Apply", func() (err error) {
		layers, err = applyLayers(shadow, dd.Layers)
		return err
	})
	return layers, dd.Discard, err
}
