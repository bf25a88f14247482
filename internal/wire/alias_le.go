//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package wire

import "unsafe"

// On little-endian platforms a packed float32 payload in a frame buffer
// *is* the in-memory representation, so a decoded slice may alias the
// buffer directly when the payload happens to be suitably aligned.
// The alignment guard keeps the conversion checkptr-clean; unaligned
// payloads fall back to the copying path.

func aliasF32(raw []byte, n int) ([]float32, bool) {
	if n == 0 || len(raw) < 4*n || uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(float32(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n), true
}
