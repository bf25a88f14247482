package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"acme/internal/wire"
)

// Session is the session-oriented view of one named node on a Network:
// the API the protocol roles program against instead of the bare
// Send/Recv pair. It adds the typed control plane (wire.ControlRecord
// over KindControl) and the round-scoped Gather primitive that makes
// straggler cutoff and churn-tolerant rejoin possible. The underlying
// Network supplies delivery — supervised, reconnecting links on TCP,
// channels in memory — so a Session composes with Memory, TCP, and
// fault-injecting wrappers (chaos.Net) alike.
type Session struct {
	node string
	net  Network
	// pending buffers messages a gather received ahead of their round —
	// a resynced device racing the rest of its cluster — until the
	// round that consumes them.
	pending []Message
}

// NewSession binds a session for the named node over net.
func NewSession(node string, net Network) *Session {
	return &Session{node: node, net: net}
}

// Node returns the session's node name.
func (s *Session) Node() string { return s.node }

// Receive hands handle each message addressed to this session, in
// arrival order (messages a previous gather buffered ahead of their
// round first), until handle reports done or fails, or ctx ends. It
// has Gather's buffer contract: the frame is released when handle
// returns — whatever it returns — so on a pooling transport the
// payload, and anything decoded zero-copy out of it, is only valid
// inside handle. A role that waits through Receive cannot leak a frame
// on an early return.
func (s *Session) Receive(ctx context.Context, handle func(Message) (done bool, err error)) error {
	for {
		var msg Message
		var err error
		if len(s.pending) > 0 {
			msg, s.pending = s.pending[0], s.pending[1:]
		} else if msg, err = s.net.Recv(ctx, s.node); err != nil {
			return err
		}
		done, err := handle(msg)
		msg.Release()
		if err != nil || done {
			return err
		}
	}
}

// SendControl sends a typed control-plane record to a peer. Control
// records always travel in the transport-owned binary encoding,
// independent of the run's payload codec; the record is sized and
// encoded once.
func (s *Session) SendControl(to string, rec wire.ControlRecord) error {
	payload, raw, err := wire.EncodeControlSized(rec)
	if err != nil {
		return err
	}
	return s.net.Send(Message{
		Kind: KindControl, From: s.node, To: to, Round: rec.Round,
		Payload: payload, Raw: raw,
	})
}

// ParseControl decodes a control-plane message's payload.
func ParseControl(msg Message) (wire.ControlRecord, error) {
	if msg.Kind != KindControl {
		return wire.ControlRecord{}, fmt.Errorf("transport: %v message is not a control record", msg.Kind)
	}
	rec, err := wire.DecodeControl(msg.Payload)
	if err != nil {
		return wire.ControlRecord{}, fmt.Errorf("transport: control record from %s: %w", msg.From, err)
	}
	return rec, nil
}

// Unexpected is the protocol's one refusal: msg — whose control record
// is rec, when msg is a control frame — has no place in what its
// receiver was doing, which during names.
func Unexpected(msg Message, rec wire.ControlRecord, during string) error {
	what := msg.Kind.String()
	if msg.Kind == KindControl {
		what = rec.Type.String() + " control"
	}
	return fmt.Errorf("unexpected %s from %s during %s", what, msg.From, during)
}

// GatherSpec describes one round-scoped collection: which peers are
// expected to contribute, which kinds count, and when the gather may
// return without the stragglers.
type GatherSpec struct {
	// Round scopes the gather: counted messages must carry it.
	Round int
	// Kinds are the payload kinds that count toward the gather.
	Kinds []Kind
	// Expect names the peers that each owe PerPeer counted messages.
	// Nil expects nobody: the gather only drains what an earlier one
	// buffered for its round.
	Expect []string
	// PerPeer is how many counted messages each peer owes (default 1;
	// the setup gather expects a stats and a shard upload per device).
	PerPeer int
	// Quorum is the fraction of expected peers (ceil) whose full
	// contribution suffices once Deadline has elapsed. 0 (or ≥1 with a
	// zero Deadline) waits for everyone — the legacy behaviour.
	Quorum float64
	// Deadline is the straggler cutoff, measured from the gather start.
	// After it elapses the gather returns as soon as Quorum is met.
	Deadline time.Duration
	// Tolerant accepts out-of-round traffic instead of failing the
	// gather: counted-kind messages from earlier rounds (a cut
	// straggler's late upload) are dropped, and messages from later
	// rounds (a resynced device racing ahead of its cluster) are
	// buffered on the session until their round's gather. Leave it
	// unset when the cutoff is disabled so protocol violations stay
	// loud.
	Tolerant bool
	// Label names the gather in error messages ("setup",
	// "aggregation round 3").
	Label string
	// OnMessage is invoked for every counted message as it arrives, in
	// arrival order — decoding and folding stream instead of waiting
	// for the full set. An error aborts the gather. Messages of a
	// counted kind from senders outside Expect are delivered too, so
	// role-level validation (unknown device, duplicate upload) keeps
	// rejecting them loudly.
	//
	// Buffer lifetime: the gather calls msg.Release after OnMessage
	// returns, so on a pooling transport the payload — and anything
	// decoded zero-copy out of it ([]byte fields, arena aliases) — is
	// only valid inside the callback. A handler that keeps payload
	// bytes past its return must copy them, or msg.Retain and own the
	// matching Release.
	OnMessage func(Message) error
	// OnControl is invoked for control-plane records that arrive during
	// the gather (a churned device's RESYNC-REQUEST). Returning
	// exclude=true removes the sender from Expect for this gather.
	OnControl func(Message, wire.ControlRecord) (exclude bool, err error)
}

// GatherResult summarizes how a gather ended.
type GatherResult struct {
	// Missing lists expected peers (sorted) whose contribution never
	// arrived before the straggler cutoff returned the gather.
	Missing []string
	// Excluded lists peers removed mid-gather by OnControl.
	Excluded []string
	// Stale counts dropped counted-kind messages from earlier rounds.
	Stale int
	// Gathered counts the messages delivered to OnMessage.
	Gathered int
	// Wall is the gather's wall-clock duration — the time the node
	// spent waiting on (and folding) its peers' uploads.
	Wall time.Duration
}

// Gather collects one round's uploads from the expected peers,
// streaming each counted message through OnMessage as it arrives. It
// returns when every live expected peer has delivered, or — when a
// quorum fraction and a straggler deadline are configured — as soon as
// the deadline has elapsed and the quorum is met. Peers still owing
// messages at that point are reported in Missing; the caller decides
// what their cutoff means (invalidated delta shadows, a ROUND-CUTOFF
// record). If the deadline fires before quorum, the gather keeps
// waiting until quorum is reached, bounded only by ctx.
func (s *Session) Gather(ctx context.Context, spec GatherSpec) (*GatherResult, error) {
	start := time.Now()
	per := spec.PerPeer
	if per <= 0 {
		per = 1
	}
	label := spec.Label
	if label == "" {
		label = fmt.Sprintf("gather round %d", spec.Round)
	}
	kinds := make(map[Kind]bool, len(spec.Kinds))
	for _, k := range spec.Kinds {
		kinds[k] = true
	}
	remaining := make(map[string]int, len(spec.Expect))
	for _, p := range spec.Expect {
		remaining[p] = per
	}
	live := len(remaining)
	outstanding := live * per
	satisfied := 0
	cutoff := spec.Quorum > 0 && spec.Quorum < 1 && spec.Deadline > 0
	quorumMet := func() bool {
		need := int(math.Ceil(spec.Quorum * float64(live)))
		if need < 1 {
			need = 1
		}
		return satisfied >= need
	}
	res := &GatherResult{}
	// counted folds one round-matching message of a gathered kind. The
	// deferred Release returns a pooling transport's frame buffer once
	// the handler is done with it — including when the handler errors,
	// so an aborted gather leaks nothing.
	counted := func(msg Message) error {
		defer msg.Release()
		if spec.OnMessage != nil {
			if err := spec.OnMessage(msg); err != nil {
				return err
			}
		}
		res.Gathered++
		if rem, ok := remaining[msg.From]; ok && rem > 0 {
			remaining[msg.From] = rem - 1
			outstanding--
			if rem == 1 {
				satisfied++
			}
		}
		return nil
	}
	// excludePeer removes a peer from the expected set mid-gather (an
	// OnControl exclusion, or an automatic one on LEAVE).
	excludePeer := func(p string) {
		if rem, ok := remaining[p]; ok {
			if rem == 0 {
				satisfied--
			}
			outstanding -= rem
			delete(remaining, p)
			live--
			res.Excluded = append(res.Excluded, p)
		}
	}
	// Drain uploads an earlier gather buffered ahead of their round (a
	// resynced device raced its cluster); anything not for this round
	// stays buffered.
	if len(s.pending) > 0 {
		var matches []Message
		keep := s.pending[:0]
		for _, msg := range s.pending {
			if kinds[msg.Kind] && msg.Round == spec.Round {
				matches = append(matches, msg)
			} else {
				keep = append(keep, msg)
			}
		}
		s.pending = keep
		for _, msg := range matches {
			if err := counted(msg); err != nil {
				return nil, err
			}
		}
	}
	for outstanding > 0 {
		if cutoff && time.Since(start) >= spec.Deadline && quorumMet() {
			break
		}
		rctx, cancel := ctx, context.CancelFunc(nil)
		if cutoff && time.Since(start) < spec.Deadline {
			rctx, cancel = context.WithDeadline(ctx, start.Add(spec.Deadline))
		}
		msg, err := s.net.Recv(rctx, s.node)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if cutoff && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
				// The straggler deadline fired while blocked; the loop
				// head decides whether quorum lets us cut.
				continue
			}
			return nil, err
		}
		switch {
		case msg.Kind == KindControl:
			rec, err := ParseControl(msg)
			// The record is fully copied out of the payload (no byte
			// slices in a ControlRecord), so the frame is done either way.
			msg.Release()
			if err != nil {
				return nil, fmt.Errorf("%w during %s", err, label)
			}
			if spec.OnControl == nil {
				// Without a handler a LEAVE from an expected peer still
				// shrinks the gather — membership departures must never
				// hang a round — while every other verb stays a loud
				// protocol violation.
				if rec.Type == wire.ControlLeave {
					excludePeer(msg.From)
					continue
				}
				return nil, Unexpected(msg, rec, label)
			}
			exclude, err := spec.OnControl(msg, rec)
			if err != nil {
				return nil, err
			}
			if exclude {
				excludePeer(msg.From)
			}
		case kinds[msg.Kind]:
			if msg.Round != spec.Round {
				if !spec.Tolerant {
					msg.Release()
					return nil, fmt.Errorf("%v from %s carries round %d during %s", msg.Kind, msg.From, msg.Round, label)
				}
				if msg.Round < spec.Round {
					// A cut straggler's late upload for a finished round:
					// dropped, so its buffer is done here.
					res.Stale++
					msg.Release()
				} else {
					// A resynced device racing ahead: hold its upload
					// for the round that will consume it.
					s.pending = append(s.pending, msg)
				}
				continue
			}
			if err := counted(msg); err != nil {
				return nil, err
			}
		default:
			msg.Release()
			return nil, Unexpected(msg, wire.ControlRecord{}, label)
		}
	}
	for p, rem := range remaining {
		if rem > 0 {
			res.Missing = append(res.Missing, p)
		}
	}
	sort.Strings(res.Missing)
	res.Wall = time.Since(start)
	return res, nil
}
