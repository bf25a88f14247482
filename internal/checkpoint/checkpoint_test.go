package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"acme/internal/wire"
)

type snapshot struct {
	Round   int
	Node    string
	Layers  [][]float64
	Packed  []byte
	Departs []bool
}

func (s *snapshot) WireFields(f *wire.Fields) {
	f.Struct(5)
	f.Int(&s.Round)
	f.String(&s.Node)
	wire.List(f, &s.Layers, (*wire.Fields).F64s)
	f.Bytes(&s.Packed)
	f.Bools(&s.Departs)
}

func (s snapshot) WireValue(f *wire.Fields) { s.WireFields(f) }

func sample() snapshot {
	return snapshot{
		Round:   7,
		Node:    "edge-0",
		Layers:  [][]float64{{1.5, -2.25, 0}, {3e-9}},
		Packed:  []byte{0, 1, 2, 255},
		Departs: []bool{false, true, false},
	}
}

func TestRoundTrip(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	if !IsEnvelope(raw) || raw[4] != Version {
		t.Fatalf("envelope opens with % x, want magic and version %d", raw[:5], Version)
	}
	var got snapshot
	if err := Decode(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample()) {
		t.Fatalf("round trip: got %+v", got)
	}
}

// TestCodecOracle: encoding/gob, the format snapshots used to travel
// in, is the yardstick — whatever the envelope persists must come back
// as the value a gob round trip reproduces.
func TestCodecOracle(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	var fromEnvelope, fromGob snapshot
	if err := Decode(raw, &fromEnvelope); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sample()); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&fromGob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromEnvelope, fromGob) {
		t.Fatalf("envelope %+v vs gob %+v", fromEnvelope, fromGob)
	}
}

// v1Envelope lays payload out in the version-1 envelope: a payload-codec
// byte (1 = wire, 2 = gob) after the version, the length and CRC behind it.
func v1Envelope(codec byte, payload []byte) []byte {
	out := append([]byte(Magic), 1, codec)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

func TestDecodeRejectsDamage(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", raw[:10], ErrTruncated},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), ErrMagic},
		{"future version", mut(func(b []byte) { b[4] = Version + 1 }), ErrVersion},
		{"version 1, wire payload", v1Envelope(1, payload), ErrVersion},
		{"version 1, gob payload", v1Envelope(2, payload), ErrVersion},
		{"version 2", mut(func(b []byte) { b[4] = 2 }), ErrVersion},
		{"version 3", mut(func(b []byte) { b[4] = 3 }), ErrVersion},
		{"truncated payload", raw[:len(raw)-3], ErrTruncated},
		{"oversized length", mut(func(b []byte) { binary.LittleEndian.PutUint64(b[5:], 1<<40) }), ErrTruncated},
		{"flipped payload bit", mut(func(b []byte) { b[len(b)-1] ^= 0x01 }), ErrChecksum},
		{"flipped crc", mut(func(b []byte) { b[13] ^= 0xff }), ErrChecksum},
	}
	for _, tc := range cases {
		var got snapshot
		if err := Decode(tc.data, &got); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestWriteFileAtomicAndFsync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edge-0.ackp")
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, fsync := range []bool{false, true} {
		if err := WriteFile(path, raw, fsync); err != nil {
			t.Fatalf("fsync=%v: %v", fsync, err)
		}
		var got snapshot
		if err := ReadFile(path, &got); err != nil {
			t.Fatalf("fsync=%v read: %v", fsync, err)
		}
		if !reflect.DeepEqual(got, sample()) {
			t.Fatalf("fsync=%v: got %+v", fsync, got)
		}
	}
	// No temp files may survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "edge-0.ackp" {
		t.Fatalf("leftover files in checkpoint dir: %v", entries)
	}
}

func TestWriteFileOverwritesCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ackp")
	if err := os.WriteFile(path, []byte("ACKPgarbage-not-a-checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got snapshot
	if err := ReadFile(path, &got); err == nil {
		t.Fatal("corrupt file decoded cleanly")
	}
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, raw, false); err != nil {
		t.Fatal(err)
	}
	if err := ReadFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != sample().Round {
		t.Fatalf("got round %d", got.Round)
	}
}
