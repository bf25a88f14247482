//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package wire

import "unsafe"

// On little-endian platforms a packed float payload in a frame buffer
// *is* the in-memory representation: encoding appends the slice's bytes
// and decoding copies them back, one copy each way, and a decoded
// float32 slice may alias the buffer directly when the payload happens
// to be suitably aligned. The alignment guard keeps the conversion
// checkptr-clean; unaligned payloads fall back to the copy.

func aliasF32(raw []byte, n int) ([]float32, bool) {
	if n == 0 || len(raw) < 4*n || uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(float32(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n), true
}

// bytesOf is the memory of s as bytes.
func bytesOf[T float32 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

func appendF32s(b []byte, s []float32) []byte { return append(b, bytesOf(s)...) }

func appendF64s(b []byte, s []float64) []byte { return append(b, bytesOf(s)...) }

// copyF32s fills dst from raw, its packed little-endian payload.
func copyF32s(dst []float32, raw []byte) { copy(bytesOf(dst), raw) }

// copyF64s fills dst from raw, its packed little-endian payload.
func copyF64s(dst []float64, raw []byte) { copy(bytesOf(dst), raw) }
