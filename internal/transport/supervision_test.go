package transport

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"acme/internal/wire"
)

// TestTCPSupervisedReconnect is the regression test for the dead cached
// connection: killing the established conn mid-run must cost one
// supervised redial, not poison every subsequent Send to that peer.
func TestTCPSupervisedReconnect(t *testing.T) {
	a, b := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := a.Send(Message{Kind: KindControl, From: "a", To: "b", Payload: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	// Kill the cached connection out from under the link.
	l := a.link("b")
	l.mu.Lock()
	if l.conn == nil {
		l.mu.Unlock()
		t.Fatal("no cached connection after a successful send")
	}
	l.conn.Close()
	l.mu.Unlock()

	// Delivery must resume: the first write may fail into the closed
	// socket, and supervision redials with backoff inside Send.
	if err := a.Send(Message{Kind: KindControl, From: "a", To: "b", Payload: []byte("two")}); err != nil {
		t.Fatalf("send after conn kill: %v", err)
	}
	msg, err := b.Recv(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "two" {
		t.Fatalf("resumed delivery carried %q", msg.Payload)
	}
}

// TestTCPConnectionReuse asserts the multiplexing half of supervision:
// after a dials b (announcing itself with a JOIN frame), b's replies
// ride the same connection instead of a second socket.
func TestTCPConnectionReuse(t *testing.T) {
	a, b := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := a.Send(Message{Kind: KindControl, From: "a", To: "b", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	// The JOIN handshake precedes the payload frame on the same conn,
	// so by now b has adopted it as its send path to a.
	deadline := time.Now().Add(5 * time.Second)
	for {
		l := b.link("a")
		l.mu.Lock()
		adopted := l.conn != nil
		l.mu.Unlock()
		if adopted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b never adopted a's connection for replies")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := b.Send(Message{Kind: KindControl, From: "b", To: "a", Payload: []byte("reply")}); err != nil {
		t.Fatal(err)
	}
	msg, err := a.Recv(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "reply" {
		t.Fatalf("multiplexed reply carried %q", msg.Payload)
	}
	// No reverse dial happened: a accepted nothing.
	a.mu.Lock()
	accepted := len(a.inConns)
	a.mu.Unlock()
	if accepted != 0 {
		t.Fatalf("reply opened %d reverse connections; want 0 (reuse)", accepted)
	}
}

// TestTCPLeaveFailsFast: a peer that announced a deliberate shutdown
// (LEAVE on Close) must make sends fail fast instead of burning the
// full reconnect backoff budget.
func TestTCPLeaveFailsFast(t *testing.T) {
	a, b := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Establish the link in both directions over one conn.
	if err := a.Send(Message{Kind: KindControl, From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// b processes the LEAVE asynchronously off its read loop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		l := b.link("a")
		l.mu.Lock()
		left := l.left
		l.mu.Unlock()
		if left {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b never observed a's LEAVE")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	err := b.Send(Message{Kind: KindControl, From: "b", To: "a"})
	if err == nil || !strings.Contains(err.Error(), "left") {
		t.Fatalf("send to a departed peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("departed-peer send took %v; want fail-fast", elapsed)
	}
}

// TestTCPStaleLeaveDropped: a restarted peer's predecessor can deliver
// its LEAVE on the old connection after the successor's JOIN replaced
// it. That LEAVE must neither tear down the successor's link nor reach
// the inbox, where a role would mark the live successor departed.
func TestTCPStaleLeaveDropped(t *testing.T) {
	_, b := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The successor's connection is b's send path to a.
	successor, _ := net.Pipe()
	defer successor.Close()
	l := b.link("a")
	l.mu.Lock()
	l.conn = successor
	l.mu.Unlock()

	// The predecessor's connection still carries its last word.
	client, server := net.Pipe()
	defer client.Close()
	b.wg.Add(1)
	go b.readLoop(server)
	leave, err := wire.EncodeControl(wire.ControlRecord{Type: wire.ControlLeave, Node: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(client, Message{Kind: KindControl, From: "a", To: "b", Payload: leave}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(client, Message{Kind: KindHeader, From: "a", To: "b", Payload: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindHeader || string(msg.Payload) != "after" {
		t.Fatalf("first delivery %v %q; want the stale LEAVE dropped", msg.Kind, msg.Payload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.left || l.conn != successor {
		t.Fatalf("stale LEAVE tore down the successor's link (left %v)", l.left)
	}
}

// TestHeaderEstimateMatchesFrameOverhead byte-accounts a real TCP round
// trip: the per-message framing overhead (everything on the socket
// beyond the payload) must stay within a handful of bytes of the
// HeaderEstimate constant the stats layer adds, across realistic name
// lengths and payload sizes.
func TestHeaderEstimateMatchesFrameOverhead(t *testing.T) {
	a, b := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	msgs := []Message{
		{Kind: KindStats, From: "device-0", To: "edge-0", Payload: []byte{}},
		{Kind: KindImportanceSet, From: "device-10", To: "edge-1", Round: 3, Payload: bytes.Repeat([]byte{1}, 1024)},
		{Kind: KindImportanceDelta, From: "device-7", To: "edge-0", Round: 120, Payload: bytes.Repeat([]byte{2}, 100*1024)},
		{Kind: KindControl, From: "collector", To: "edge-0", Payload: []byte{9}},
	}
	const tolerance = 8 // varint body length + round + real name lengths vs the flat estimate
	for _, in := range msgs {
		in.To = "b"
		var frame bytes.Buffer
		if err := writeFrame(&frame, in); err != nil {
			t.Fatal(err)
		}
		overhead := frame.Len() - len(in.Payload)
		if diff := overhead - HeaderEstimate; diff > tolerance || diff < -tolerance {
			t.Fatalf("%v from %s: frame overhead %d vs HeaderEstimate %d (|diff| > %d)",
				in.Kind, in.From, overhead, HeaderEstimate, tolerance)
		}
		// Round trip over the real socket: the frame must arrive intact
		// and the stats account it as payload + HeaderEstimate.
		if err := a.Send(in); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(ctx, "b")
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != in.Kind || got.Round != in.Round || !bytes.Equal(got.Payload, in.Payload) {
			t.Fatalf("round trip mismatch for %v", in.Kind)
		}
	}
	var wantBytes int64
	for _, in := range msgs {
		wantBytes += int64(len(in.Payload)) + HeaderEstimate
	}
	if got := a.Stats().TotalBytes(); got != wantBytes {
		t.Fatalf("sent stats %d, want %d", got, wantBytes)
	}
	if got := b.Stats().TotalReceivedBytes(); got != wantBytes {
		t.Fatalf("received stats %d, want %d", got, wantBytes)
	}
}
