package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"acme/internal/checkpoint"
)

// Checkpoint files travel in the versioned CRC envelope. A file from
// before the envelope existed — a bare gob stream — is no longer read:
// it must be refused with an error that says what is wrong with it,
// leaving the module untouched.
func TestLoadCheckpointLegacyBareGob(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lin := NewLinear("l", 6, 4, rng)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Snapshot(lin)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	lin2 := NewLinear("l", 6, 4, rand.New(rand.NewSource(77)))
	before := append([]float64(nil), lin2.Params()[0].Value.Data...)
	err := LoadCheckpoint(path, lin2)
	if !errors.Is(err, checkpoint.ErrMagic) {
		t.Fatalf("bare-gob checkpoint: got %v, want an error wrapping %v", err, checkpoint.ErrMagic)
	}
	for i, v := range lin2.Params()[0].Value.Data {
		if v != before[i] {
			t.Fatal("a refused checkpoint modified the module")
		}
	}
}

func TestSaveCheckpointWritesEnvelopeAndDetectsRot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lin := NewLinear("l", 6, 4, rng)
	path := filepath.Join(t.TempDir(), "lin.ckpt")
	if err := SaveCheckpoint(path, lin); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !checkpoint.IsEnvelope(raw) {
		t.Fatal("SaveCheckpoint no longer writes the envelope")
	}
	// Flip one payload bit: the CRC must catch it on load.
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadCheckpoint(path, NewLinear("l", 6, 4, rng)); err == nil {
		t.Fatal("bit-rotted checkpoint restored silently")
	}
}
