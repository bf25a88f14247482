package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"testing"
	"time"

	"acme/internal/wire"
)

// TestEncodeDecodeRoundTrip: a payload travels as its wire encoding,
// plain or entropy-coded, and decodes on the receiving side with no
// knowledge of which — entropy frames identify themselves.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{A: 7, B: []float64{1, 2, 3}, C: "hello"}
	plain, err := wire.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemory()
	m.Register("b", 2)
	for _, frame := range [][]byte{plain, wire.EntropyCompress(plain)} {
		if err := m.Send(Message{Kind: KindStats, From: "a", To: "b", Payload: frame}); err != nil {
			t.Fatal(err)
		}
		msg, err := m.Recv(context.Background(), "b")
		if err != nil {
			t.Fatal(err)
		}
		var out payload
		if err := wire.Decode(msg.Payload, &out); err != nil {
			t.Fatal(err)
		}
		if out.A != in.A || out.C != in.C || len(out.B) != 3 {
			t.Fatalf("round trip mismatch (entropy frame %v): %+v", wire.IsEntropy(frame), out)
		}
	}
}

func TestBinaryCodecIsSmallerOnFloatPayloads(t *testing.T) {
	in := floatLayers{Layers: make([][]float32, 4)}
	for i := range in.Layers {
		in.Layers[i] = make([]float32, 256)
		for j := range in.Layers[i] {
			in.Layers[i][j] = float32(i) + float32(j)*0.01
		}
	}
	// The yardstick is encoding/gob, the codec the binary format
	// replaced: full type metadata and 8-byte floats per message.
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(in); err != nil {
		t.Fatal(err)
	}
	b, err := wire.Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= g.Len() {
		t.Fatalf("binary %d bytes should be below gob %d", len(b), g.Len())
	}
}

func TestMemorySendRecv(t *testing.T) {
	m := NewMemory()
	m.Register("a", 4)
	m.Register("b", 4)
	if err := m.Send(Message{Kind: KindStats, From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != "a" || msg.Kind != KindStats {
		t.Fatalf("got %+v", msg)
	}
}

func TestMemoryUnknownNode(t *testing.T) {
	m := NewMemory()
	m.Register("a", 1)
	if err := m.Send(Message{To: "nope", From: "a"}); err == nil {
		t.Fatal("expected unknown-node error")
	}
	if _, err := m.Recv(context.Background(), "nope"); err == nil {
		t.Fatal("expected unknown-node error")
	}
}

func TestMemoryRecvContextCancel(t *testing.T) {
	m := NewMemory()
	m.Register("a", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Recv(ctx, "a"); err == nil {
		t.Fatal("expected context error")
	}
}

func TestStatsAccounting(t *testing.T) {
	m := NewMemory()
	m.Register("a", 4)
	m.Register("b", 4)
	for i := 0; i < 3; i++ {
		if err := m.Send(Message{Kind: KindRawData, From: "a", To: "b", Payload: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.TotalMessages() != 3 {
		t.Fatalf("messages %d", st.TotalMessages())
	}
	if st.BytesByKind()[KindRawData] != 348 {
		t.Fatalf("bytes by kind: %v", st.BytesByKind())
	}
}

func TestStatsRawVsWireAccounting(t *testing.T) {
	m := NewMemory()
	m.Register("edge", 4)
	// A message carries the in-memory payload size next to the wire
	// size; 512 float64s are 4096 raw bytes while the binary wire form
	// is 4096 + small headers.
	vals := make(floats, 512)
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	payload, err := wire.Encode(&vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Send(Message{Kind: KindImportanceSet, From: "dev", To: "edge", Payload: payload, Raw: wire.RawSize(&vals)}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if got := st.RawBytesByKind()[KindImportanceSet]; got != 4096 {
		t.Fatalf("raw bytes %d, want 4096", got)
	}
	if st.TotalRawBytes() != 4096 {
		t.Fatalf("total raw %d", st.TotalRawBytes())
	}
	sent := st.BytesByKind()[KindImportanceSet]
	if sent <= 4096 || sent > 4096+64 {
		t.Fatalf("wire bytes %d outside expected envelope", sent)
	}
	ratio := st.CompressionRatio()
	if ratio <= 0.9 || ratio > 1.0 {
		t.Fatalf("compression ratio %.3f outside (0.9, 1.0]", ratio)
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	m := NewMemory()
	m.Register("sink", 256)
	const senders, per = 8, 10
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = m.Send(Message{Kind: KindControl, From: "x", To: "sink"})
			}
		}(s)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		if _, err := m.Recv(context.Background(), "sink"); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().TotalMessages() != senders*per {
		t.Fatalf("messages %d", m.Stats().TotalMessages())
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindStats, KindBackbone, KindHeader, KindImportanceSet,
		KindPersonalizedSet, KindRawData, KindControl, KindProvision}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

// payload, floatLayers and floats are the records these tests encode.
type payload struct {
	A int
	B []float64
	C string
}

func (p *payload) WireFields(f *wire.Fields) {
	f.Struct(3)
	f.Int(&p.A)
	f.F64s(&p.B)
	f.String(&p.C)
}

type floatLayers struct{ Layers [][]float32 }

func (l *floatLayers) WireFields(f *wire.Fields) {
	f.Struct(1)
	wire.List(f, &l.Layers, (*wire.Fields).F32s)
}

// floats is a record that is not a struct: its frame is the bare packed
// slice.
type floats []float64

func (v *floats) WireFields(f *wire.Fields) { f.F64s((*[]float64)(v)) }
