package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"acme/internal/wire"
)

// TCP is a Transport over real sockets: every node runs a listener and
// owns one supervised link per peer. Wire format per message:
//
//	varint bodyLen | uint8 kind | varint round | varint fromLen | from |
//	varint toLen | to | payload
//
// Links are session-oriented rather than fire-and-forget: a dialing
// node opens with a JOIN control frame so the acceptor can reuse the
// same connection for replies (connection multiplexing instead of one
// unsupervised socket per direction), a dead connection is evicted and
// redialed with capped exponential backoff inside Send (delivery
// resumes after a peer restart), and Close announces a LEAVE so peers
// fail fast instead of retrying into a deliberate shutdown. Used by
// cmd/acmenode to run cloud, edge, and device roles as separate OS
// processes.
type TCP struct {
	node  string
	stats *Stats

	mu        sync.Mutex
	peers     map[string]string // node name → address
	links     map[string]*link  // node name → supervised send path
	inConns   map[net.Conn]struct{}
	listener  net.Listener
	inbox     chan Message
	closed    bool
	retryLeft bool
	wg        sync.WaitGroup
}

// link is the supervised send path to one peer. Its mutex serializes
// writes and reconnects; conn is nil between a failure and the redial.
type link struct {
	mu   sync.Mutex
	conn net.Conn
	// left marks a peer that announced a deliberate shutdown (LEAVE):
	// sends fail fast instead of burning the backoff budget. A fresh
	// inbound JOIN from the peer clears it.
	left bool
}

var _ Transport = (*TCP)(nil)

// The reconnect policy of a supervised link: on a write or dial error
// Send retries with exponential backoff starting at reconnectBase,
// doubling up to reconnectCap, for at most reconnectAttempts tries.
const (
	reconnectBase     = 25 * time.Millisecond
	reconnectCap      = 500 * time.Millisecond
	reconnectAttempts = 8
)

// NewTCP starts a TCP network node listening on addr. peers maps every
// reachable node name to its address.
func NewTCP(node, addr string, peers map[string]string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		node:     node,
		stats:    NewStats(),
		peers:    make(map[string]string, len(peers)),
		links:    make(map[string]*link),
		inConns:  make(map[net.Conn]struct{}),
		listener: ln,
		inbox:    make(chan Message, 256),
	}
	for k, v := range peers {
		t.peers[k] = v
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listener address.
func (t *TCP) Addr() string { return t.listener.Addr().String() }

// SetRetryLeftPeers makes Send treat a peer's LEAVE as a transient
// fault — evicted and redialed with the usual backoff — instead of
// failing fast forever. Checkpointed sessions arm this: a peer that
// left may be a crashed process about to restart on the same address,
// and the redial is what heals the send path when the restart's own
// dial-in loses the connection-adoption tie-break (an edge restarting
// against its devices is exactly that case).
func (t *TCP) SetRetryLeftPeers(v bool) {
	t.mu.Lock()
	t.retryLeft = v
	t.mu.Unlock()
}

func (t *TCP) retryLeftPeers() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retryLeft
}

// SetPeers replaces the peer table. Useful when listeners bind
// ephemeral ports and the full table is only known after every node has
// started.
func (t *TCP) SetPeers(peers map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = make(map[string]string, len(peers))
	for k, v := range peers {
		t.peers[k] = v
	}
}

// Stats exposes traffic counters (bytes sent by this node).
func (t *TCP) Stats() *Stats { return t.stats }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inConns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inConns, conn)
		links := make([]*link, 0, len(t.links))
		for _, l := range t.links {
			links = append(links, l)
		}
		t.mu.Unlock()
		// If this conn had been adopted as a send path, evict it so the
		// next Send redials instead of writing into a dead socket.
		for _, l := range links {
			l.mu.Lock()
			if l.conn == conn {
				l.conn = nil
			}
			l.mu.Unlock()
		}
	}()
	r := bufio.NewReader(conn)
	for {
		msg, err := readFrame(r)
		if err != nil {
			return
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			msg.Release()
			return
		}
		// Link-level control frames supervise the connection itself.
		// The JOIN handshake is pure link plumbing (every dial sends
		// one) and never reaches the inbox or the traffic counters. A
		// LEAVE tears the link down (peers fail fast on Send) AND is
		// forwarded to the inbox: membership is role-level state — an
		// edge must drop the departed device from its pending gather
		// immediately, not discover the loss on the next write. A LEAVE
		// peerLeft does not honor is dropped here.
		if msg.Kind == KindControl && msg.To == t.node {
			if rec, err := wire.DecodeControl(msg.Payload); err == nil {
				switch rec.Type {
				case wire.ControlJoin:
					t.adoptConn(msg.From, conn)
					msg.Release()
					continue
				case wire.ControlLeave:
					if !t.peerLeft(msg.From, conn) {
						msg.Release()
						continue
					}
				}
			}
		}
		// Received-side accounting happens here, at the socket, so a
		// node's stats cover its real inbound traffic even though the
		// sender's Stats object lives in another process.
		t.stats.recordRecv(msg)
		t.inbox <- msg
	}
}

// adoptConn registers an accepted connection as the send path to the
// peer that announced itself on it — the multiplexing half of link
// supervision: replies ride the dialer's connection instead of a
// second socket. A JOIN only arrives when the peer newly dialed us,
// i.e. the peer believes no usable connection exists; a connection we
// still cache is then usually stale (a restarted peer whose LEAVE was
// lost would receive its traffic into a dead socket). Whether to
// replace it is decided by a deterministic tie-break — the
// lexicographically smaller dialer wins — so that when both ends
// redial simultaneously exactly one connection survives instead of
// each side closing the one the other just adopted (which would turn
// the next buffered write into silent loss). Device names sort below
// edge names, so a restarted device (the supported churn direction)
// always displaces the edge's stale cache.
func (t *TCP) adoptConn(peer string, conn net.Conn) {
	l := t.link(peer)
	l.mu.Lock()
	if l.conn == nil {
		l.conn = conn
	} else if l.conn != conn && peer < t.node {
		l.conn.Close()
		l.conn = conn
	}
	l.left = false
	l.mu.Unlock()
}

// peerLeft marks a peer's deliberate shutdown and drops any send path
// to it: subsequent Sends fail fast instead of redialing into a closed
// listener. A LEAVE is only honored when the cached send path is the
// connection it arrived on (or none): if a *different* connection has
// been adopted since, the peer already restarted and JOINed — the LEAVE
// is the dead predecessor's last word, delayed behind its successor's
// handshake, and acting on it would tear down the fresh link and fail
// every send to a live peer. The connection stands for the peer's life
// here: Close stamps its LEAVE 0, the setup life's. It reports whether
// the LEAVE was honored: the predecessor's must not reach the inbox
// either, or the role above would mark its live successor departed.
func (t *TCP) peerLeft(peer string, conn net.Conn) bool {
	l := t.link(peer)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil && l.conn != conn {
		return false
	}
	l.left = true
	l.conn = nil
	return true
}

// link returns (creating if needed) the supervised link for a peer.
func (t *TCP) link(peer string) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.links[peer]
	if !ok {
		l = &link{}
		t.links[peer] = l
	}
	return l
}

func (t *TCP) peerAddr(peer string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.peers[peer]
	if !ok {
		return "", fmt.Errorf("transport: unknown peer %q", peer)
	}
	return addr, nil
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Send implements Network. The link to the destination is supervised:
// a dead cached connection is evicted on write error and redialed with
// capped exponential backoff, so one peer restart costs a retry rather
// than poisoning every subsequent Send. A leased payload is released
// once the write attempts end, whatever their outcome; a self-addressed
// message keeps its lease into the inbox. Note the TCP write buffer can
// accept a frame the peer never reads; loss on an ungracefully dying
// peer surfaces at the protocol layer (straggler cutoff, resync), not
// here.
func (t *TCP) Send(msg Message) error {
	if msg.To == t.node {
		t.stats.record(msg)
		t.stats.recordRecv(msg)
		t.inbox <- msg
		return nil
	}
	// The frame is copied into the socket (or given up on) below, so
	// the lease ends with this call.
	defer msg.Release()
	l := t.link(msg.To)
	t.stats.record(msg)
	backoff := reconnectBase

	l.mu.Lock()
	defer l.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		if t.isClosed() {
			return fmt.Errorf("transport: network closed")
		}
		if l.left {
			if !t.retryLeftPeers() {
				return fmt.Errorf("transport: peer %s left the session", msg.To)
			}
			l.left = false // dial the restarted peer instead of failing fast
		}
		if l.conn == nil {
			// A peer missing from the table is a configuration error,
			// not a transient fault: fail fast instead of backing off.
			if _, err := t.peerAddr(msg.To); err != nil {
				return err
			}
			conn, err := t.dialLink(msg.To)
			if err != nil {
				lastErr = err
			} else {
				l.conn = conn
			}
		}
		if l.conn != nil {
			err := writeFrame(l.conn, msg)
			if err == nil {
				return nil
			}
			lastErr = err
			l.conn.Close()
			l.conn = nil
		}
		if attempt+1 < reconnectAttempts {
			// Sleep without the link lock: a restarted peer's JOIN
			// adoption (which is exactly what would make the retry
			// succeed) and other senders must not stall behind the
			// backoff.
			l.mu.Unlock()
			time.Sleep(backoff)
			l.mu.Lock()
			if backoff *= 2; backoff > reconnectCap {
				backoff = reconnectCap
			}
		}
	}
	return fmt.Errorf("transport: send to %s: %w", msg.To, lastErr)
}

// dialLink opens a fresh connection to a peer and performs the JOIN
// handshake so the acceptor can multiplex replies onto it.
func (t *TCP) dialLink(peer string) (net.Conn, error) {
	addr, err := t.peerAddr(peer)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s@%s: %w", peer, addr, err)
	}
	join, err := wire.EncodeControl(wire.ControlRecord{Type: wire.ControlJoin, Node: t.node})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeFrame(conn, Message{Kind: KindControl, From: t.node, To: peer, Payload: join}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: join %s: %w", peer, err)
	}
	// The peer may multiplex its replies onto this connection instead
	// of dialing back, so the dialer reads it too.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("transport: network closed")
	}
	t.wg.Add(1)
	t.mu.Unlock()
	go t.readLoop(conn)
	return conn, nil
}

// Recv implements Network. The node argument must be this node's name.
func (t *TCP) Recv(ctx context.Context, node string) (Message, error) {
	if node != t.node {
		return Message{}, fmt.Errorf("transport: tcp node %q cannot receive for %q", t.node, node)
	}
	select {
	case msg := <-t.inbox:
		return msg, nil
	case <-ctx.Done():
		return Message{}, fmt.Errorf("transport: recv %q: %w", node, ctx.Err())
	}
}

// Close shuts the listener and all connections down and waits for the
// reader goroutines to exit. A LEAVE record is written best-effort on
// every live outbound link first, so peers stop reconnecting into a
// deliberate shutdown.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.listener.Close()
	links := t.links
	t.links = make(map[string]*link)
	inConns := make([]net.Conn, 0, len(t.inConns))
	for c := range t.inConns {
		inConns = append(inConns, c)
	}
	t.mu.Unlock()

	leave, _ := wire.EncodeControl(wire.ControlRecord{Type: wire.ControlLeave, Node: t.node})
	for peer, l := range links {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			_ = writeFrame(l.conn, Message{Kind: KindControl, From: t.node, To: peer, Payload: leave})
			l.conn.Close()
			l.conn = nil
		}
		l.mu.Unlock()
	}
	// Close accepted connections too, so their readLoops unblock.
	for _, c := range inConns {
		c.Close()
	}
	// Drain the inbox so readLoops blocked on send can observe closure,
	// releasing each discarded message's pooled buffer.
	go func() {
		for msg := range t.inbox {
			msg.Release()
		}
	}()
	t.wg.Wait()
	close(t.inbox)
	return err
}

// maxFrame bounds a single message frame so a corrupt length prefix
// cannot trigger a gigantic allocation.
const maxFrame = 1 << 30

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// writeFrame emits one varint-framed message, assembled in a buffer
// leased from wire's pool for the write:
//
//	varint bodyLen | uint8 kind | varint round | varint fromLen | from |
//	varint toLen | to | payload
//
// Round travels zigzag-free as a uvarint: loop rounds are never
// negative.
func writeFrame(w io.Writer, msg Message) error {
	bodyLen := 1 +
		uvarintLen(uint64(msg.Round)) +
		uvarintLen(uint64(len(msg.From))) + len(msg.From) +
		uvarintLen(uint64(len(msg.To))) + len(msg.To) +
		len(msg.Payload)
	f := wire.Lease(binary.MaxVarintLen64 + bodyLen)
	b := binary.AppendUvarint(f.B, uint64(bodyLen))
	b = append(b, byte(msg.Kind))
	b = binary.AppendUvarint(b, uint64(msg.Round))
	b = binary.AppendUvarint(b, uint64(len(msg.From)))
	b = append(b, msg.From...)
	b = binary.AppendUvarint(b, uint64(len(msg.To)))
	b = append(b, msg.To...)
	b = append(b, msg.Payload...)
	_, err := w.Write(b)
	f.B = b
	f.Release()
	return err
}

// frameReader is what readFrame needs: buffered byte-wise access for
// the varint length prefix plus bulk reads for the body.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame parses one varint-framed message into a body buffer leased
// from wire's pool. On success the returned message's Payload aliases
// that buffer and carries its one reference: the consumer's Release
// returns it to the pool. On any error — including a parse error after
// the body was read — the buffer is released here, so a torn or corrupt
// frame cannot leak it; no alias can be outstanding because the message
// was never returned.
func readFrame(r frameReader) (Message, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	if n > maxFrame {
		return Message{}, fmt.Errorf("transport: frame too large: %d", n)
	}
	buf := wire.Lease(int(n))
	msg, err := parseFrame(r, buf, int(n))
	if err != nil {
		buf.Release()
		return Message{}, err
	}
	return msg, nil
}

// parseFrame reads an n-byte frame body into buf and parses it into a
// message leasing buf.
func parseFrame(r frameReader, buf *wire.Buffer, n int) (Message, error) {
	buf.B = slices.Grow(buf.B[:0], n)[:n]
	body := buf.B
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	if len(body) < 4 {
		return Message{}, fmt.Errorf("transport: short frame")
	}
	msg := Message{Kind: Kind(body[0])}
	off := 1
	round, rn := binary.Uvarint(body[off:])
	if rn <= 0 || round > uint64(maxFrame) {
		return Message{}, fmt.Errorf("transport: bad round varint")
	}
	msg.Round = int(round)
	off += rn
	from, off, err := frameString(body, off)
	if err != nil {
		return Message{}, fmt.Errorf("transport: bad from field: %w", err)
	}
	msg.From = from
	to, off, err := frameString(body, off)
	if err != nil {
		return Message{}, fmt.Errorf("transport: bad to field: %w", err)
	}
	msg.To = to
	msg = msg.WithLease(buf)
	msg.Payload = body[off:]
	return msg, nil
}

// frameString reads a varint-prefixed string out of a frame body.
func frameString(body []byte, off int) (string, int, error) {
	u, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return "", 0, fmt.Errorf("bad length varint")
	}
	off += n
	if u > uint64(len(body)-off) {
		return "", 0, fmt.Errorf("length %d exceeds frame", u)
	}
	return string(body[off : off+int(u)]), off + int(u), nil
}
