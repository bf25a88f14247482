package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"acme/internal/wire"
)

// frameBytes encodes msg into one wire frame.
func frameBytes(t *testing.T, msg Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// leased is how many wire Buffers are out of the pool.
func leased() int64 { return wire.Leased() }

// TestReadFrameErrorPathsReturnBuffer is the error-path audit for the
// leased read buffer: every parse failure after the body has been read
// must hand the buffer back to the pool, so a byzantine peer cannot
// make the receiver allocate a fresh buffer per corrupt frame.
func TestReadFrameErrorPathsReturnBuffer(t *testing.T) {
	good := frameBytes(t, Message{Kind: KindStats, From: "d0", To: "e0", Payload: []byte("0123456789")})

	short := frameBytes(t, Message{})[:3]                    // body shorter than the 4-byte minimum
	badRound := append([]byte{5}, 1, 0xff, 0xff, 0xff, 0xff) // 5-byte body, round varint runs past it
	badFrom := append([]byte(nil), good...)
	badFrom[2] = 0xff // from-field length far beyond the frame
	truncated := append([]byte(nil), good[:len(good)-4]...)
	truncated[0] = good[0] // keep the full length prefix: body read fails mid-way

	corrupt := [][]byte{short, badRound, badFrom, truncated}
	start := leased()
	for i, frame := range corrupt {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
			t.Fatalf("corrupt frame %d decoded without error", i)
		}
		if n := leased() - start; n != 0 {
			t.Fatalf("corrupt frame %d left %d buffers leased (error paths must return buffers to the pool)", i, n)
		}
	}
}

// TestReadFrameReleaseRecyclesBuffer checks the happy-path lifetime
// contract: the frame buffer stays out of the pool while the message
// (or any Retain-ed alias of it) is live, and returns on the final
// Release.
func TestReadFrameReleaseRecyclesBuffer(t *testing.T) {
	frame := frameBytes(t, Message{Kind: KindImportanceSet, From: "d1", To: "e0", Round: 2, Payload: bytes.Repeat([]byte{0x5a}, 64)})
	read := func() Message {
		msg, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}

	start := leased()
	first := read()
	if first.ref == nil {
		t.Fatal("message from readFrame carries no buffer reference")
	}
	first.Retain() // simulate a zero-copy alias parked by a consumer

	// One Release with the alias still outstanding must NOT recycle:
	// the buffer stays leased, and the next read takes another.
	first.Release()
	second := read()
	if n := leased() - start; n != 2 {
		t.Fatalf("%d buffers leased with an alias outstanding and a second read, want 2", n)
	}
	if second.ref == first.ref {
		t.Fatal("a read reused a buffer whose alias is still outstanding")
	}

	// Dropping the last references returns both buffers, and a read
	// after that takes one of them back from the pool. (Race builds
	// randomly discard sync.Pool puts, so reuse only shows without
	// -race.)
	first.Release()
	second.Release()
	if n := leased() - start; n != 0 {
		t.Fatalf("%d buffers still leased after the final releases", n)
	}
	third := read()
	if third.ref != first.ref && third.ref != second.ref && !raceEnabled {
		t.Fatal("a released buffer was not recycled")
	}
	third.Release()
	if n := leased() - start; n != 0 {
		t.Fatalf("%d buffers still leased", n)
	}
}

// TestReleaseWithoutRetainPanics pins the misuse diagnostic: one
// Release too many is a refcounting bug and must fail loudly instead
// of recycling a buffer that another holder may still alias.
func TestReleaseWithoutRetainPanics(t *testing.T) {
	frame := frameBytes(t, Message{Kind: KindStats, From: "a", To: "b", Payload: []byte("xyz")})
	msg, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	msg.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	msg.Release()
}

// TestReleaseNoopWithoutPool checks that a message whose payload nobody
// leased (a plain []byte: control records, a test's hand-built frame)
// tolerates any number of Releases. Leased payloads, which both
// transports deliver, count their references instead.
func TestReleaseNoopWithoutPool(t *testing.T) {
	msg := Message{Kind: KindStats, Payload: []byte("plain")}
	msg.Retain()
	msg.Release()
	msg.Release()
	msg.Release() // still a no-op: no pooled buffer to misaccount
}

// frameNet is a Network whose Recv parses the next queued wire frame
// into a pooled buffer, the way the TCP read loop does.
type frameNet struct{ frames [][]byte }

func (n *frameNet) Send(Message) error { return nil }

func (n *frameNet) Recv(context.Context, string) (Message, error) {
	if len(n.frames) == 0 {
		return Message{}, io.EOF
	}
	frame := n.frames[0]
	n.frames = n.frames[1:]
	return readFrame(bufio.NewReader(bytes.NewReader(frame)))
}

// TestSessionReceiveReleasesEveryFrame pins the receive discipline the
// device role waits through: whatever the handler returns — keep
// waiting, done, or an error — the frame it was handed goes back to the
// pool, so a wait that drops strays or fails early leaves no buffer
// leased.
func TestSessionReceiveReleasesEveryFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 64)
	frame := frameBytes(t, Message{Kind: KindControl, From: "e0", To: "d0", Round: 3, Payload: payload})
	ses := NewSession("d0", &frameNet{frames: [][]byte{frame, frame, frame, frame, frame, frame}})
	errRefused := errors.New("refused")

	start := leased()
	seen := 0
	// Two strays dropped, the third message ends the wait.
	if err := ses.Receive(context.Background(), func(msg Message) (bool, error) {
		if !bytes.Equal(msg.Payload, payload) {
			t.Errorf("payload not live inside the handler: %x", msg.Payload)
		}
		seen++
		return seen == 3, nil
	}); err != nil {
		t.Fatal(err)
	}
	// One more stray, then the handler fails the wait.
	if err := ses.Receive(context.Background(), func(Message) (bool, error) {
		seen++
		if seen == 5 {
			return false, errRefused
		}
		return false, nil
	}); !errors.Is(err, errRefused) {
		t.Fatalf("handler error not returned: %v", err)
	}
	// The last frame is dropped and the transport's own error ends it.
	if err := ses.Receive(context.Background(), func(Message) (bool, error) {
		seen++
		return false, nil
	}); !errors.Is(err, io.EOF) {
		t.Fatalf("transport error not returned: %v", err)
	}
	if seen != 6 {
		t.Fatalf("handler saw %d of 6 frames", seen)
	}
	if n := leased() - start; n != 0 {
		t.Fatalf("6 frames through Receive left %d buffers leased (every path must release)", n)
	}
}
