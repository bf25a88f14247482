package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
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

// withCountingReadPool swaps readPool for a fresh pool that counts
// buffer constructions, so a test can observe recycling (Get after Put
// on the same goroutine hits the pool's private slot and allocates
// nothing new).
func withCountingReadPool(t *testing.T) *int {
	t.Helper()
	old := readPool
	allocs := 0
	readPool = &sync.Pool{New: func() any { allocs++; return new(frameBuf) }}
	t.Cleanup(func() { readPool = old })
	return &allocs
}

// TestReadFrameErrorPathsReturnBuffer is the error-path audit for the
// pooled read buffer: every parse failure after the body has been read
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
	allocs := withCountingReadPool(t)
	for i, frame := range corrupt {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
			t.Fatalf("corrupt frame %d decoded without error", i)
		}
	}
	// Every error path returned its buffer, so the sequence needed at
	// most one construction (the later frames reuse the first buffer).
	// The race runtime randomly discards sync.Pool puts, so the exact
	// count only holds on non-race builds.
	if *allocs > 1 && !raceEnabled {
		t.Fatalf("%d corrupt frames constructed %d buffers, want 1 (error paths must return buffers to the pool)", len(corrupt), *allocs)
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

	allocs := withCountingReadPool(t)
	first := read()
	if first.ref == nil {
		t.Fatal("message from readFrame carries no buffer reference")
	}
	first.Retain() // simulate a zero-copy alias parked by a consumer

	// One Release with the alias still outstanding must NOT recycle:
	// the next read has to construct a second buffer.
	first.Release()
	second := read()
	if *allocs != 2 {
		t.Fatalf("read with a live alias outstanding reused its buffer (%d constructions, want 2)", *allocs)
	}

	// Dropping the last references returns both buffers; two further
	// reads then construct nothing new. (Race builds randomly discard
	// sync.Pool puts, so the exact count only holds without -race.)
	first.Release()
	second.Release()
	read().Release()
	read().Release()
	if *allocs != 2 && !raceEnabled {
		t.Fatalf("released buffers were not recycled (%d constructions, want 2)", *allocs)
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

// TestReleaseNoopWithoutPool checks sender-allocated payloads (Memory
// transport, TCP self-delivery) tolerate any number of Releases.
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
// pool, so a wait that drops strays or fails early constructs no more
// buffers than one that reads a single message.
func TestSessionReceiveReleasesEveryFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 64)
	frame := frameBytes(t, Message{Kind: KindControl, From: "e0", To: "d0", Round: 3, Payload: payload})
	ses := NewSession("d0", &frameNet{frames: [][]byte{frame, frame, frame, frame, frame, frame}})
	errRefused := errors.New("refused")

	allocs := withCountingReadPool(t)
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
	// (Race builds randomly discard sync.Pool puts, so the exact count
	// only holds without -race.)
	if *allocs != 1 && !raceEnabled {
		t.Fatalf("6 frames through Receive constructed %d buffers, want 1 (every path must release)", *allocs)
	}
}
