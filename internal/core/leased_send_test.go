package core

import (
	"context"
	"math/rand"
	"testing"

	"acme/internal/transport"
	"acme/internal/wire"
)

// leasedUpload is an ImportanceUpload of uploadLayerSizes (about 80 KB
// on the wire), boxed once as a device's upload is, and a memory
// network with an edge to send it to.
func leasedUpload() (any, *transport.Memory) {
	rng := rand.New(rand.NewSource(4))
	up := ImportanceUpload{DeviceID: 3}
	for _, n := range uploadLayerSizes {
		l := make([]float32, n)
		for i := range l {
			l[i] = rng.Float32()
		}
		up.Layers = append(up.Layers, l)
	}
	mem := transport.NewMemory()
	mem.Register("edge-0", 4)
	return up, mem
}

// leasedSend is one upload's trip as a device and its edge make it:
// encode into a leased frame, Memory.Send, Recv, Release.
func leasedSend(s *System, mem *transport.Memory, up any) error {
	buf, raw, err := s.encodePayload(transport.KindImportanceSet, up)
	if err != nil {
		return err
	}
	if err := mem.Send(transport.Message{
		Kind: transport.KindImportanceSet, From: "device-3", To: "edge-0", Raw: raw,
	}.WithLease(buf)); err != nil {
		return err
	}
	msg, err := mem.Recv(context.Background(), "edge-0")
	if err != nil {
		return err
	}
	msg.Release()
	return nil
}

// TestLeasedSendAllocatesNothing: once the pool holds a frame, an
// upload's encode, send, receive and release allocate nothing — the
// frame is the encode buffer, and its reference count lives in it.
// (Race builds randomly drop sync.Pool puts, so it needs a normal
// build.)
func TestLeasedSendAllocatesNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	up, mem := leasedUpload()
	s := &System{}
	start := wire.Leased()
	run := func() {
		if err := leasedSend(s, mem, up); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool and the stats maps
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("a warm leased send allocates %.1f times, want 0", n)
	}
	if n := wire.Leased() - start; n != 0 {
		t.Fatalf("%d frames left leased", n)
	}
}

// BenchmarkLeasedSend times that trip for an 80 KB upload; B/op and
// allocs/op must read 0.
func BenchmarkLeasedSend(b *testing.B) {
	up, mem := leasedUpload()
	s := &System{}
	b.ReportAllocs()
	b.SetBytes(int64(4 * 20302))
	for i := 0; i < b.N; i++ {
		if err := leasedSend(s, mem, up); err != nil {
			b.Fatal(err)
		}
	}
}
