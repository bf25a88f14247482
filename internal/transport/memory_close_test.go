package transport

import (
	"sync"
	"testing"

	"acme/internal/wire"
)

// leasedMessage is a message to node that carries a leased frame.
func leasedMessage(node string) Message {
	b := wire.Lease(len("frame"))
	b.B = append(b.B, "frame"...)
	return Message{Kind: KindControl, From: "sender", To: node}.WithLease(b)
}

// TestMemoryCloseReleasesParkedFrames: a leased frame sent to a node
// that never reads it is back in wire's pool once the network closes,
// and a Send after Close releases its frame too.
func TestMemoryCloseReleasesParkedFrames(t *testing.T) {
	start := leased()
	m := NewMemory()
	m.Register("idle", 4)
	for range 3 {
		if err := m.Send(leasedMessage("idle")); err != nil {
			t.Fatal(err)
		}
	}
	if n := leased() - start; n != 3 {
		t.Fatalf("%d frames leased before Close, want 3", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := leased() - start; n != 0 {
		t.Fatalf("%d frames still leased after Close", n)
	}
	if err := m.Send(leasedMessage("idle")); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if n := leased() - start; n != 0 {
		t.Fatalf("%d frames leased after a refused Send", n)
	}
}

// TestMemorySendRacingCloseReleases: senders that race Close, on inboxes
// nobody reads, leave no frame leased once every Send has returned. Run
// it under -race -count=20 after a change to Memory.
func TestMemorySendRacingCloseReleases(t *testing.T) {
	start := leased()
	m := NewMemory()
	nodes := []string{"a", "b", "c", "d"}
	for _, n := range nodes {
		m.Register(n, 64) // room for every message: no Send blocks
	}
	var wg sync.WaitGroup
	for i := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 8 {
				_ = m.Send(leasedMessage(nodes[(i+j)%len(nodes)]))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.Close()
	}()
	wg.Wait()
	if n := leased() - start; n != 0 {
		t.Fatalf("%d frames still leased after Close and every Send", n)
	}
}
