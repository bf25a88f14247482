package wire

import (
	"math/rand"
	"testing"
)

// FuzzDecode drives arbitrary bytes through Decode into this package's
// own records (DeltaLayer, ControlRecord) and into the test records of
// every field kind. The invariant is "error, never panic": a malformed
// frame from a byzantine peer must surface as a clean decode error. The
// protocol's frame kinds are fuzzed where their schemas live
// (core.FuzzDecodeRecords). The seed corpus (testdata/fuzz/FuzzDecode)
// holds valid encodings plus truncated/corrupt variants.
func FuzzDecode(f *testing.F) {
	sparseDelta := DiffLayer(
		[]byte{1, 2, 3, 4, 5, 6, 7, 8},
		[]byte{1, 2, 9, 9, 5, 6, 7, 8}, 2)
	filled := testSample()
	seedValues := []any{
		&sparseDelta,
		&DeltaLayer{N: 2, Elem: 4, Dense: true, Changed: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		// Delta records with a corrupt bitmask (spare bits set, wrong
		// popcount) must decode into a record that Apply later rejects —
		// the decode itself stays panic-free.
		&DeltaLayer{N: 3, Elem: 1, Mask: []byte{0xff}, Changed: []byte{1}},
		&DeltaLayer{N: 5, Elem: 1, Mask: []byte{0xfe}, Changed: []byte{3}},
		// The session control plane: every verb, including the loop
		// records that carry rounds and the Done end-of-loop marker.
		ControlRecord{Type: ControlJoin, Node: "device-2"},
		ControlRecord{Type: ControlLeave, Node: "edge-0"},
		ControlRecord{Type: ControlResyncRequest, Node: "device-1", Device: 1, Round: 3},
		ControlRecord{Type: ControlRoundCutoff, Device: 5, Round: 2, Done: true},
		ControlRecord{Type: ControlRoundInvite, Device: 4, Round: 6},
		ControlRecord{Type: ControlSessionResume, Node: "edge-1", Round: 9},
		&filled,
		&scalars{T: true, I: -3, I64: 1 << 50, U: 1 << 60, U8: 200, X: 0.5, S: "s", Empty: []float64{1, 2}},
	}
	for _, v := range seedValues {
		raw, err := Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		if len(raw) > 2 {
			f.Add(raw[:len(raw)/2])
			mut := append([]byte(nil), raw...)
			mut[1] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, tF64s, 0xff, 0xff, 0xff, 0xff, 0x0f})

	// Entropy-coded frames: Decode expands these transparently, and the
	// expand path must error — never panic, never over-allocate — on a
	// truncated range-coder stream, a corrupt header, or an over-long
	// declared inner length.
	entPlain, err := Encode(makeEntropyPayload(rand.New(rand.NewSource(9)), 256))
	if err != nil {
		f.Fatal(err)
	}
	ent := EntropyCompress(entPlain)
	if !IsEntropy(ent) {
		f.Fatal("entropy seed did not compress")
	}
	f.Add(append([]byte(nil), ent...))              // valid entropy frame
	f.Add(append([]byte(nil), ent[:len(ent)/2]...)) // truncated stream
	hdr := append([]byte(nil), ent...)
	hdr[2] ^= 0x7f // corrupt declared inner length
	f.Add(hdr)
	sum := append([]byte(nil), ent...)
	sum[len(sum)/4] ^= 0xff // corrupt checksum / early stream byte
	f.Add(sum)
	f.Add([]byte{Version, tEntropy}) // bare entropy tag, no header
	// Over-long run: a tiny frame declaring a huge inner length.
	f.Add([]byte{Version, tEntropy, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0})

	targets := []func() Record{
		func() Record { return &DeltaLayer{} },
		func() Record { return &ControlRecord{} },
		func() Record { return &sample{} },
		func() Record { return &scalars{} },
		func() Record { return &entropyPayload{} },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range targets {
			target := mk()
			if err := Decode(data, target); err != nil {
				continue
			}
			// A successful decode must re-encode without error.
			if _, err := Encode(target); err != nil {
				t.Fatalf("decoded value does not re-encode: %v", err)
			}
		}
	})
}
