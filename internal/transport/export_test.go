package transport

import "testing"

// DestroyOnRelease re-homes msg's payload in a private buffer that is
// overwritten the moment its last reference is released: what readPool
// does to a TCP frame once the next one lands in it, made immediate and
// certain. For external tests that run whole roles over such frames.
func DestroyOnRelease(msg Message) Message {
	buf := append([]byte(nil), msg.Payload...)
	msg.Payload = buf
	msg.ref = &bufRef{free: func() {
		for i := range buf {
			buf[i] = 0xa5
		}
	}}
	msg.ref.refs.Store(1)
	return msg
}

// NewFrameNet is a Network whose Recv parses msgs, one wire frame each,
// into pooled read buffers the way the TCP read loop does, and
// WithCountingReadPool counts the buffers readPool constructs: together
// they let an external test run a core role and see whether it released
// every frame.
func NewFrameNet(t *testing.T, msgs ...Message) Network {
	n := &frameNet{}
	for _, msg := range msgs {
		n.frames = append(n.frames, frameBytes(t, msg))
	}
	return n
}

var WithCountingReadPool = withCountingReadPool

const RaceEnabled = raceEnabled
