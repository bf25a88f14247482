// Package transport provides the messaging substrate of the
// bidirectional single-loop distributed system: typed messages whose
// payloads are internal/wire encodings (entropy-coded or not),
// per-sender/per-kind byte accounting including
// raw-vs-wire compression ratios (the data that feeds Table I), an
// in-memory network for single-process simulation, and a TCP network
// for multi-process deployment (cmd/acmenode).
package transport

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"acme/internal/wire"
)

// Kind tags the protocol message types exchanged by the system.
type Kind uint8

// Protocol message kinds.
const (
	KindStats               Kind = iota + 1 // edge → cloud: cluster attribute statistics
	KindBackbone                            // cloud → edge: customized backbone parameters
	KindHeader                              // edge → device: backbone + header model
	KindImportanceSet                       // device → edge: header importance set Qn
	KindPersonalizedSet                     // edge → device: aggregated set Q'n
	KindRawData                             // device → edge/cloud: raw training samples
	KindControl                             // coordination/acknowledgement
	KindProvision                           // out-of-band setup: shared data already stored at the edge
	KindImportanceDelta                     // device → edge: importance set as a delta vs round t−1
	KindImportanceDownDelta                 // edge → device: personalized set as a delta vs round t−1
	KindReport                              // device → edge: end-of-run result report, the device's last message
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindStats:
		return "stats"
	case KindBackbone:
		return "backbone"
	case KindHeader:
		return "header"
	case KindImportanceSet:
		return "importance-set"
	case KindPersonalizedSet:
		return "personalized-set"
	case KindRawData:
		return "raw-data"
	case KindControl:
		return "control"
	case KindProvision:
		return "provision"
	case KindImportanceDelta:
		return "importance-delta"
	case KindImportanceDownDelta:
		return "importance-down-delta"
	case KindReport:
		return "report"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is one protocol datagram.
type Message struct {
	Kind Kind
	From string
	To   string
	// Round scopes loop traffic to a Phase 2-2 round so the session
	// layer can tell a live upload from a straggler's stale one without
	// decoding the payload. Non-loop traffic leaves it 0.
	Round   int
	Payload []byte
	// Raw is the logical in-memory size of the payload before
	// encoding (see wire.RawSize). It is sender-side accounting only
	// and never travels over a socket.
	Raw int
	// ref is the leased buffer backing Payload, when one does: an
	// encoded frame a sender leased to the message (WithLease), or a
	// frame the TCP reader read off its socket. Its reference count
	// lives in the buffer. It is nil for a payload nobody leased (a
	// plain []byte), and Retain and Release are then no-ops.
	ref *wire.Buffer
}

// WithLease returns m carrying the frame b as its payload, together
// with the caller's reference to b: whoever ends up holding the message
// releases it. Send passes the reference on. The memory transport hands
// it to the receiver, whose Release returns the buffer to the pool; TCP
// releases it once the frame is written. A sender that sends one frame
// to several peers holds its own reference across the sends and
// Retains once per message.
func (m Message) WithLease(b *wire.Buffer) Message {
	m.Payload, m.ref = b.B, b
	return m
}

// Retain adds a reference to the leased buffer backing the payload.
// Call it before parking a message (or a slice decoded zero-copy out
// of it) beyond the scope that will call Release, or before handing
// the same message to a second Send.
func (m Message) Retain() {
	if m.ref != nil {
		m.ref.Retain()
	}
}

// Release drops one reference to the leased buffer backing the
// payload. When the last reference is dropped the buffer returns to
// wire's pool, so neither the payload nor any alias decoded out of it
// (wire.Dec Bytes, and F32s with AliasInput) may be touched afterwards.
// Both transports deliver leased frames: memory passes the sender's
// lease through, TCP leases each frame it reads. A message whose
// payload nobody leased has no buffer, and Release is a no-op.
// Forgetting to Release is safe — the buffer falls to the garbage
// collector instead of the pool; releasing more times than retained is
// a bug and panics.
func (m Message) Release() {
	if m.ref != nil {
		m.ref.Release()
	}
}

// Network moves messages between named nodes.
type Network interface {
	// Send delivers msg to msg.To. It blocks only if the destination
	// inbox is full. It takes over the caller's reference to a leased
	// payload, whether it succeeds or fails.
	Send(msg Message) error
	// Recv blocks until a message addressed to node arrives or ctx is
	// done.
	Recv(ctx context.Context, node string) (Message, error)
}

// Transport is the full substrate contract the session layer and
// multi-process deployments rely on: message movement plus peer-table
// rebinding (late-bound addresses on TCP; a no-op in memory),
// addressing, traffic accounting, and lifecycle shutdown. Memory, TCP,
// and the chaos link-fault wrapper all implement it, so the session
// API composes with any of them — including chaos wrapped around TCP.
type Transport interface {
	Network
	// SetPeers replaces the node name → address table.
	SetPeers(peers map[string]string)
	// Addr returns the transport's reachable address for this node
	// ("memory" for the in-process network).
	Addr() string
	// Stats exposes the traffic counters.
	Stats() *Stats
	// Close tears the transport down. Further Sends fail.
	Close() error
}

// HeaderEstimate is the fixed per-message framing overhead added to
// every wire byte counter (kind + addressing + length prefix). Exported
// so byte accounting done outside this package (e.g. the per-round
// Phase 2-2 trace) matches the per-kind counters exactly.
const HeaderEstimate = 16

// Stats aggregates traffic counters in both directions. Wire byte
// counts include the payload plus the HeaderEstimate per message; raw
// byte counts are the logical in-memory payload sizes before encoding,
// so the raw/wire quotient is the measured compression ratio of the
// codec. Sent counters are recorded when a node hands a message to the
// network. Received counters are recorded where inbound traffic
// becomes observable to the node: Memory records them when Recv
// consumes a message, while a TCP node records them when a frame
// arrives off a socket (readLoop) or is self-delivered in Send — so on
// TCP they cover everything that reached the node, even if a later
// abort leaves some of it unconsumed in the inbox.
type Stats struct {
	mu              sync.Mutex
	bytesByKind     map[Kind]int64
	rawByKind       map[Kind]int64
	binByKind       map[Kind]int64
	msgsByKind      map[Kind]int64
	recvBytesByKind map[Kind]int64
	recvMsgsByKind  map[Kind]int64
	totalBytes      int64
	totalRaw        int64
	totalMsgs       int64
	totalRecvBytes  int64
	totalRecvMsgs   int64
}

// NewStats returns an empty counter set.
func NewStats() *Stats {
	return &Stats{
		bytesByKind:     make(map[Kind]int64),
		rawByKind:       make(map[Kind]int64),
		binByKind:       make(map[Kind]int64),
		msgsByKind:      make(map[Kind]int64),
		recvBytesByKind: make(map[Kind]int64),
		recvMsgsByKind:  make(map[Kind]int64),
	}
}

func (s *Stats) record(msg Message) {
	n := int64(len(msg.Payload)) + HeaderEstimate
	// bin is the payload size before entropy coding: for an
	// entropy-coded frame the inner plain length recorded in its
	// header, for everything else the payload itself. The gap between
	// binByKind and bytesByKind is exactly the entropy coder's win.
	bin := n
	if plain, ok := wire.EntropyInfo(msg.Payload); ok {
		bin = int64(plain) + HeaderEstimate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesByKind[msg.Kind] += n
	s.rawByKind[msg.Kind] += int64(msg.Raw)
	s.binByKind[msg.Kind] += bin
	s.msgsByKind[msg.Kind]++
	s.totalBytes += n
	s.totalRaw += int64(msg.Raw)
	s.totalMsgs++
}

func (s *Stats) recordRecv(msg Message) {
	n := int64(len(msg.Payload)) + HeaderEstimate
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recvBytesByKind[msg.Kind] += n
	s.recvMsgsByKind[msg.Kind]++
	s.totalRecvBytes += n
	s.totalRecvMsgs++
}

// TotalBytes returns the total bytes moved.
func (s *Stats) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBytes
}

// TotalMessages returns the total message count.
func (s *Stats) TotalMessages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalMsgs
}

// MessagesByKind returns a copy of the per-kind message counters.
func (s *Stats) MessagesByKind() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, len(s.msgsByKind))
	for k, v := range s.msgsByKind {
		out[k] = v
	}
	return out
}

// BytesByKind returns a copy of the per-kind wire byte counters.
func (s *Stats) BytesByKind() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, len(s.bytesByKind))
	for k, v := range s.bytesByKind {
		out[k] = v
	}
	return out
}

// RawBytesByKind returns a copy of the per-kind raw (pre-encoding)
// byte counters. Kinds sent without raw accounting report 0.
func (s *Stats) RawBytesByKind() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, len(s.rawByKind))
	for k, v := range s.rawByKind {
		out[k] = v
	}
	return out
}

// BinaryBytesByKind returns a copy of the per-kind pre-entropy byte
// counters: what the wire bytes would have been had entropy coding
// been off (the plain binary frame size plus header estimate). For
// kinds sent without entropy coding this equals BytesByKind, so the
// binary/wire quotient is the per-kind entropy coding ratio.
func (s *Stats) BinaryBytesByKind() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, len(s.binByKind))
	for k, v := range s.binByKind {
		out[k] = v
	}
	return out
}

// ReceivedBytesByKind returns a copy of the per-kind wire byte
// counters of consumed (received) messages.
func (s *Stats) ReceivedBytesByKind() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, len(s.recvBytesByKind))
	for k, v := range s.recvBytesByKind {
		out[k] = v
	}
	return out
}

// ReceivedMessagesByKind returns a copy of the per-kind received
// message counters.
func (s *Stats) ReceivedMessagesByKind() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, len(s.recvMsgsByKind))
	for k, v := range s.recvMsgsByKind {
		out[k] = v
	}
	return out
}

// TotalReceivedBytes returns the total bytes consumed by receivers.
func (s *Stats) TotalReceivedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalRecvBytes
}

// TotalReceivedMessages returns the total messages consumed.
func (s *Stats) TotalReceivedMessages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalRecvMsgs
}

// TotalRawBytes returns the total pre-encoding payload bytes.
func (s *Stats) TotalRawBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalRaw
}

// CompressionRatio returns raw bytes divided by wire bytes over every
// message with raw accounting, or 0 when nothing was recorded. Values
// above 1 mean the codec shrank the traffic below its in-memory size.
func (s *Stats) CompressionRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.totalRaw == 0 || s.totalBytes == 0 {
		return 0
	}
	return float64(s.totalRaw) / float64(s.totalBytes)
}

// BytesForKinds sums the sent and received wire byte counters over the
// given kinds, so direction-level readouts (e.g. the personalized-set
// downlink pair KindPersonalizedSet + KindImportanceDownDelta) stay
// consistent with the per-kind counters in both directions.
func (s *Stats) BytesForKinds(kinds ...Kind) (sent, received int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range kinds {
		sent += s.bytesByKind[k]
		received += s.recvBytesByKind[k]
	}
	return sent, received
}

// Kinds returns every message kind with recorded traffic in either
// direction, in ascending order — the deterministic iteration order
// for per-kind reporting.
func (s *Stats) Kinds() []Kind {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[Kind]bool, len(s.msgsByKind))
	out := make([]Kind, 0, len(s.msgsByKind))
	for k := range s.msgsByKind {
		seen[k] = true
		out = append(out, k)
	}
	for k := range s.recvMsgsByKind {
		if !seen[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Memory is an in-process Network with one buffered inbox per node.
type Memory struct {
	stats *Stats

	mu     sync.Mutex
	inbox  map[string]chan Message
	closed bool
}

var _ Transport = (*Memory)(nil)

// NewMemory returns an empty in-memory network.
func NewMemory() *Memory {
	return &Memory{
		stats: NewStats(),
		inbox: make(map[string]chan Message),
	}
}

// Stats exposes the traffic counters.
func (m *Memory) Stats() *Stats { return m.stats }

// SetPeers implements Transport. The in-memory network has no
// addresses, so the peer table is ignored.
func (m *Memory) SetPeers(map[string]string) {}

// Addr implements Transport.
func (m *Memory) Addr() string { return "memory" }

// Close implements Transport: subsequent Sends fail, and every message
// parked in an inbox is released, as TCP.Close releases its inbox's.
// Receivers blocked in Recv are left to their contexts, matching a
// closed socket whose reader times out rather than observing the close
// directly.
func (m *Memory) Close() error {
	m.mu.Lock()
	m.closed = true
	inboxes := make([]chan Message, 0, len(m.inbox))
	for _, ch := range m.inbox {
		inboxes = append(inboxes, ch)
	}
	m.mu.Unlock()
	for _, ch := range inboxes {
		drain(ch)
	}
	return nil
}

// drain releases every message waiting in ch.
func drain(ch chan Message) {
	for {
		select {
		case msg := <-ch:
			msg.Release()
		default:
			return
		}
	}
}

// Register creates the inbox for a node. Registering twice is a no-op.
func (m *Memory) Register(node string, buffer int) {
	if buffer <= 0 {
		buffer = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.inbox[node]; !ok {
		m.inbox[node] = make(chan Message, buffer)
	}
}

// Send implements Network. A leased payload travels as is: the
// receiver's Release returns it to the pool.
func (m *Memory) Send(msg Message) error {
	m.mu.Lock()
	ch, ok := m.inbox[msg.To]
	closed := m.closed
	m.mu.Unlock()
	if closed || !ok {
		msg.Release()
		if closed {
			return fmt.Errorf("transport: network closed")
		}
		return fmt.Errorf("transport: unknown node %q", msg.To)
	}
	m.stats.record(msg)
	ch <- msg
	// A Close that ran since the check above may have drained the inbox
	// before msg arrived: drain it again rather than leave msg parked.
	m.mu.Lock()
	closed = m.closed
	m.mu.Unlock()
	if closed {
		drain(ch)
	}
	return nil
}

// Recv implements Network.
func (m *Memory) Recv(ctx context.Context, node string) (Message, error) {
	m.mu.Lock()
	ch, ok := m.inbox[node]
	m.mu.Unlock()
	if !ok {
		return Message{}, fmt.Errorf("transport: unknown node %q", node)
	}
	select {
	case msg := <-ch:
		m.stats.recordRecv(msg)
		return msg, nil
	case <-ctx.Done():
		return Message{}, fmt.Errorf("transport: recv %q: %w", node, ctx.Err())
	}
}
