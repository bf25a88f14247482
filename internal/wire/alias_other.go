//go:build !(386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package wire

import (
	"encoding/binary"
	"math"
)

// Big-endian (or unknown-endianness) platforms cannot alias packed
// little-endian float payloads or move them with one copy; they encode
// and decode element by element.

func aliasF32(raw []byte, n int) ([]float32, bool) { return nil, false }

func appendF32s(b []byte, s []float32) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

func appendF64s(b []byte, s []float64) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// copyF32s fills dst from raw, its packed little-endian payload.
func copyF32s(dst []float32, raw []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

// copyF64s fills dst from raw, its packed little-endian payload.
func copyF64s(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}
