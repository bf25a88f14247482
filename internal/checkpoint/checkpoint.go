// Package checkpoint is the durable snapshot envelope for mid-flight
// session state and saved models: a versioned, CRC-guarded container
// written atomically (temp file + rename) so a crash mid-write can never
// leave a half-valid file behind. The payload is the value's
// internal/wire encoding — the same serializer the protocol's messages
// use, so there is one format on the wire and on disk.
//
// Envelope layout (little-endian):
//
//	offset  size  field
//	0       4     magic "ACKP"
//	4       1     envelope version (currently 4)
//	5       8     payload length, uint64 LE
//	13      4     CRC-32C (Castagnoli) of the payload, uint32 LE
//	17      n     payload (wire encoding)
//
// Version 1 carried a payload-codec byte after the version (wire or
// gob); version 2 had today's layout, but its payloads framed every
// parameter blob with its parameter's name; version 3's edge snapshots
// carried a membership registry after the detector state. All three
// are refused with ErrVersion.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"acme/internal/wire"
)

// Magic opens every checkpoint file.
const Magic = "ACKP"

// Version is the current envelope version. Decoders reject any other.
const Version = 4

// headerSize is the fixed envelope prefix before the payload.
const headerSize = 4 + 1 + 8 + 4

// maxPayload bounds the declared payload length so a corrupt header
// cannot drive a huge allocation before the CRC check runs.
const maxPayload = 1 << 32

// Typed decode failures, so callers can tell "not a checkpoint file"
// from "damaged checkpoint" from "written by another envelope version".
var (
	ErrTruncated = errors.New("checkpoint: truncated envelope")
	ErrMagic     = errors.New("checkpoint: bad magic")
	ErrVersion   = errors.New("checkpoint: unsupported envelope version")
	ErrChecksum  = errors.New("checkpoint: payload checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsEnvelope reports whether data begins with the checkpoint magic.
func IsEnvelope(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Encode serializes v through the wire codec and wraps it in the
// envelope.
func Encode(v any) ([]byte, error) {
	payload, _, err := wire.EncodeLeased(v)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	defer payload.Release()
	out := make([]byte, headerSize+len(payload.B))
	copy(out, Magic)
	out[4] = Version
	binary.LittleEndian.PutUint64(out[5:], uint64(len(payload.B)))
	binary.LittleEndian.PutUint32(out[13:], crc32.Checksum(payload.B, castagnoli))
	copy(out[headerSize:], payload.B)
	return out, nil
}

// Decode validates the envelope and deserializes the payload into v.
// Every failure is an error, never a panic, whatever the input bytes.
func Decode(data []byte, v any) error {
	if len(data) < headerSize {
		return ErrTruncated
	}
	if !IsEnvelope(data) {
		return ErrMagic
	}
	if data[4] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, data[4])
	}
	n := binary.LittleEndian.Uint64(data[5:])
	if n > maxPayload || int(n) != len(data)-headerSize {
		return fmt.Errorf("%w: declared %d payload bytes, have %d", ErrTruncated, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[13:]) {
		return ErrChecksum
	}
	if err := wire.Decode(payload, v); err != nil {
		return fmt.Errorf("checkpoint: decode: %w", err)
	}
	return nil
}

// WriteFile writes an envelope (Encode's output) to path atomically:
// the bytes land in a temp file in the same directory, optionally
// fsynced, then renamed over path. A reader never observes a partial
// file; a crash leaves either the old snapshot or the new one.
func WriteFile(path string, data []byte, fsync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if fsync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("checkpoint: fsync %s: %w", tmpName, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if fsync {
		// Durability of the rename itself needs the directory synced.
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// ReadFile reads path and decodes the envelope into v.
func ReadFile(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(raw, v)
}
