package transport

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
