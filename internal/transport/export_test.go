package transport

import (
	"testing"

	"acme/internal/wire"
)

// DestroyOnRelease gives the receiver of msg a private leased copy of
// its payload and releases msg's own reference, so that while
// ScrubReleased is on both are overwritten in place at their final
// Release: the copy at this receiver's own last release, the original
// (a memory sender's frame, a TCP read) once its last holder — another
// receiver of a fanned-out frame, or its sender — lets go. A receiver
// that reads its frame after its own release then sees scrubbed bytes
// whoever else still holds the original. For external tests that run
// whole roles over such frames.
func DestroyOnRelease(msg Message) Message {
	b := wire.Lease()
	b.B = append(b.B, msg.Payload...)
	msg.Release()
	return msg.WithLease(b)
}

// ScrubReleased overwrites every leased frame with 0xa5 at its final
// Release, before it goes back to the pool, until the test ends: what
// the pool does to a frame once the next one lands in it, made
// immediate and certain.
func ScrubReleased(t testing.TB) {
	wire.SetScrub(func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	})
	t.Cleanup(func() { wire.SetScrub(nil) })
}
