package transport

import (
	"fmt"

	"acme/internal/wire"
)

// Codec serializes protocol payloads: plain binary frames, or the same
// frames entropy-coded where that is smaller.
type Codec interface {
	// Name identifies the codec ("binary", "entropy").
	Name() string
	// Encode serializes v into a payload the codec's Decode reverses.
	Encode(v any) ([]byte, error)
	// Decode deserializes data into v (a non-nil pointer).
	Decode(data []byte, v any) error
}

// Binary is the compact pooled wire codec (internal/wire): varint
// headers, typed frames, packed float payloads. Its DecodeArena carves
// slices from a caller-owned arena (and aliases the input buffer when
// the arena allows it) instead of allocating — the per-gather fold
// path.
var Binary = binaryCodec{}

// Entropy is the binary codec with an order-0 adaptive range coder
// layered on top: Encode emits the entropy-coded frame when it is
// strictly smaller than the plain binary frame and the plain frame
// otherwise, so it never loses. Decode is shared with Binary — the
// wire package expands entropy frames transparently — which means a
// receiver needs no configuration to interoperate with an
// entropy-coding sender.
var Entropy Codec = entropyCodec{}

type binaryCodec struct{}

func (binaryCodec) Name() string { return "binary" }

func (binaryCodec) Encode(v any) ([]byte, error) {
	payload, err := wire.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return payload, nil
}

func (binaryCodec) Decode(data []byte, v any) error {
	if err := wire.Decode(data, v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

func (binaryCodec) DecodeArena(data []byte, v any, a *wire.Arena) error {
	if err := wire.DecodeArena(data, v, a); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

type entropyCodec struct{}

func (entropyCodec) Name() string { return "entropy" }

func (entropyCodec) Encode(v any) ([]byte, error) {
	payload, err := wire.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return wire.EntropyCompress(payload), nil
}

func (entropyCodec) Decode(data []byte, v any) error {
	return Binary.Decode(data, v)
}
