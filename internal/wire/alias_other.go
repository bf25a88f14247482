//go:build !(386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package wire

// Big-endian (or unknown-endianness) platforms cannot alias packed
// little-endian float32 payloads; the decode falls back to copying.

func aliasF32(raw []byte, n int) ([]float32, bool) { return nil, false }
