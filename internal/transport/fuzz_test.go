package transport

import (
	"bytes"
	"testing"

	"acme/internal/wire"
)

// FuzzReadFrame drives arbitrary bytes through the TCP frame decoder.
// A byzantine or corrupt peer must produce a clean error (or a
// harmless message), never a panic or an oversized allocation. The
// seed corpus (testdata/fuzz/FuzzReadFrame) holds valid frames plus
// truncation/corruption variants.
func FuzzReadFrame(f *testing.F) {
	seeds := []Message{
		{Kind: KindStats, From: "device-0", To: "edge-0", Payload: []byte("payload")},
		{Kind: KindImportanceSet, From: "d", To: "e", Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: KindControl, From: "", To: "", Payload: nil},
	}
	// An entropy-coded payload, as the entropy codec puts on the wire:
	// the frame layer must carry it opaquely, and the per-kind stats
	// probe (wire.EntropyInfo) must tolerate mutated headers.
	entPlain, err := wire.Encode(&floatLayers{Layers: [][]float32{make([]float32, 200)}})
	if err != nil {
		f.Fatal(err)
	}
	if ent := wire.EntropyCompress(entPlain); wire.IsEntropy(ent) {
		seeds = append(seeds, Message{Kind: KindImportanceSet, From: "d", To: "e", Round: 3, Payload: ent})
	} else {
		f.Fatal("entropy seed did not compress")
	}
	for _, msg := range seeds {
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		mut := append([]byte(nil), raw...)
		mut[0] ^= 0x7f
		f.Add(mut)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A decoded frame must re-encode to a frame that decodes to the
		// same message (round-trip stability).
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Kind != msg.Kind || again.From != msg.From || again.To != msg.To || !bytes.Equal(again.Payload, msg.Payload) {
			t.Fatalf("frame round trip unstable: %+v vs %+v", msg, again)
		}
		again.Release()
		msg.Release()
	})
}
