package wire

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// benchPayload mirrors the shape of an importance upload: the
// highest-volume message of the Phase 2-2 loop.
type benchPayload struct {
	DeviceID int
	Layers   [][]float32
	Masks    [][]bool
}

func (p *benchPayload) WireFields(f *Fields) {
	f.Struct(3)
	f.Int(&p.DeviceID)
	List(f, &p.Layers, (*Fields).F32s)
	List(f, &p.Masks, (*Fields).Bools)
}

func (p benchPayload) WireValue(f *Fields) { p.WireFields(f) }

func makeBenchPayload() benchPayload {
	p := benchPayload{DeviceID: 42}
	p.Layers = make([][]float32, 8)
	for i := range p.Layers {
		p.Layers[i] = make([]float32, 1024)
		for j := range p.Layers[i] {
			p.Layers[i][j] = float32(i*1024+j) * 1e-3
		}
	}
	p.Masks = make([][]bool, 4)
	for i := range p.Masks {
		p.Masks[i] = make([]bool, 64)
		for j := range p.Masks[i] {
			p.Masks[i][j] = j%2 == 0
		}
	}
	return p
}

// BenchmarkWireRoundTrip compares the binary codec against
// per-message gob (a fresh encoder each time, as the transport uses
// it) on encode+decode of a protocol-shaped payload.
func BenchmarkWireRoundTrip(b *testing.B) {
	payload := makeBenchPayload()

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			raw, err := Encode(payload)
			if err != nil {
				b.Fatal(err)
			}
			size = len(raw)
			var out benchPayload
			if err := Decode(raw, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(size), "wire-bytes")
	})

	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
			var out benchPayload
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(size), "wire-bytes")
	})
}

// BenchmarkWireEncode isolates the pooled encode path.
func BenchmarkWireEncode(b *testing.B) {
	payload := makeBenchPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}
