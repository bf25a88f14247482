package checkpoint

import (
	"encoding/binary"
	"testing"

	"acme/internal/wire"
)

// state is the record FuzzDecode decodes into.
type state struct {
	Round  int
	Node   string
	Shadow [][]byte
	Walls  []float64
}

func (s *state) WireFields(f *wire.Fields) {
	f.Struct(4)
	f.Int(&s.Round)
	f.String(&s.Node)
	wire.List(f, &s.Shadow, (*wire.Fields).Bytes)
	f.F64s(&s.Walls)
}

func (s state) WireValue(f *wire.Fields) { s.WireFields(f) }

// FuzzDecode drives arbitrary bytes through the envelope decoder. The
// invariant is "error, never panic": a snapshot file torn by a crash,
// a bit-rotted disk, or a wrong-version file from a future build must
// all surface as clean decode errors. The seed corpus holds a valid
// envelope for a populated and for a zero value, each with truncated,
// corrupt-CRC, wrong-version, wrong-magic, oversized-length and
// version-1 variants.
func FuzzDecode(f *testing.F) {
	value := state{
		Round:  3,
		Node:   "edge-1",
		Shadow: [][]byte{{1, 2, 3}, nil, {255}},
		Walls:  []float64{0.25, 17.5},
	}
	for _, v := range []state{value, {}} {
		raw, err := Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // torn write
		f.Add(raw[:headerSize]) // header only, empty payload claim
		trunc := append([]byte(nil), raw[:headerSize-1]...)
		f.Add(trunc) // short header
		crc := append([]byte(nil), raw...)
		crc[13] ^= 0xff // corrupt checksum
		f.Add(crc)
		bit := append([]byte(nil), raw...)
		bit[len(bit)-1] ^= 0x01 // corrupt payload under a valid header
		f.Add(bit)
		ver := append([]byte(nil), raw...)
		ver[4] = Version + 7 // wrong version
		f.Add(ver)
		mag := append([]byte(nil), raw...)
		mag[0] = 'B' // wrong magic
		f.Add(mag)
		long := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(long[5:], 1<<40) // oversized declared length
		f.Add(long)
		f.Add(v1Envelope(1, raw[headerSize:])) // retired envelope version
	}
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got state
		if err := Decode(data, &got); err != nil {
			return
		}
		// A successful decode must re-encode cleanly.
		if _, err := Encode(got); err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
	})
}
