package core

import (
	"context"
	"errors"
	"fmt"

	"acme/internal/transport"
	"acme/internal/wire"
)

// verdict is what a wait does with one message.
type verdict uint8

const (
	refuse verdict = iota // fail the wait: the message has no place in the phase
	drop                  // release the frame unread and wait on
	// handle hands the message to the phase's handler, which judges what
	// the table cannot see — the device's own edge, a cluster member,
	// checkpointing on, a resumed edge, round stamps — and may still drop
	// it or refuse it (errRefused).
	handle
)

// key is a message's column: its payload kind, or controlKeys plus a
// control frame's verb. Key 0 is every message no column names: an
// unknown kind, an undecodable control record.
type key uint8

const controlKeys key = 16

// keySet is a set of columns, one bit each; anyKey is every column.
type keySet uint32

const anyKey = ^keySet(0)

func kindBit(k transport.Kind) keySet   { return 1 << k }
func verbBit(v wire.ControlType) keySet { return 1 << (controlKeys + key(v)) }

// row is one phase of a role, one of its waits: the columns its handler
// reads, then the columns it drops; it refuses every other column. name
// is the phase as a refusal states it, with the round appended when
// perRound.
type row struct {
	name         string
	perRound     bool
	handle, drop keySet
}

func (r *row) verdict(k key) verdict {
	switch {
	case r.handle&(1<<k) != 0:
		return handle
	case r.drop&(1<<k) != 0:
		return drop
	}
	return refuse
}

func (r *row) label(round int) string {
	if r.perRound {
		return fmt.Sprintf("%s %d", r.name, round)
	}
	return r.name
}

// kinds lists the payload kinds the row handles: what a gather counts.
func (r *row) kinds() (ks []transport.Kind) {
	for k := transport.Kind(1); key(k) < controlKeys; k++ {
		if r.handle&kindBit(k) != 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// loopKeys is what a device's loop reads while it waits on its edge.
var loopKeys = kindBit(transport.KindPersonalizedSet) | kindBit(transport.KindImportanceDownDelta) |
	verbBit(wire.ControlJoin) | verbBit(wire.ControlLeave) | verbBit(wire.ControlRoundCutoff) |
	verbBit(wire.ControlRoundInvite) | verbBit(wire.ControlMemberGone) | verbBit(wire.ControlSessionResume)

// The single loop's protocol (paper §II-A, Algorithm 2), one table per
// role: a row per wait, saying what it does with every message. The
// waits read their rows through route; testdata/protocol.golden renders
// every cell.
var (
	cloudProtocol = struct{ stats row }{
		// A departing edge's LEAVE shrinks the gather.
		stats: row{name: "phase-1 statistics", handle: kindBit(transport.KindStats) | verbBit(wire.ControlLeave)},
	}
	edgeProtocol = struct{ setup, backbone, round, reports row }{
		// Before the loop exists, a RESYNC-REQUEST (a device restarted
		// with -rejoin this early) cannot be served and must not kill the
		// healthy run; a LEAVE fails setup, which needs every shard.
		setup: row{name: "setup", handle: kindBit(transport.KindStats) | kindBit(transport.KindProvision),
			drop: verbBit(wire.ControlJoin) | verbBit(wire.ControlResyncRequest)},
		backbone: row{name: "backbone wait", handle: kindBit(transport.KindBackbone),
			drop: verbBit(wire.ControlJoin) | verbBit(wire.ControlResyncRequest)},
		// A JOIN is advisory: the RESYNC-REQUEST carries the churn.
		round: row{name: "aggregation round", perRound: true,
			handle: kindBit(transport.KindImportanceSet) | kindBit(transport.KindImportanceDelta) |
				verbBit(wire.ControlLeave) | verbBit(wire.ControlResyncRequest),
			drop: verbBit(wire.ControlJoin)},
		// A cut straggler's upload after the last gather is dropped.
		reports: row{name: "the report phase", handle: kindBit(transport.KindReport) | verbBit(wire.ControlLeave),
			drop: kindBit(transport.KindImportanceSet) | kindBit(transport.KindImportanceDelta) |
				verbBit(wire.ControlJoin) | verbBit(wire.ControlResyncRequest)},
	}
	deviceProtocol = struct{ model, resync, invite, downlink, grace row }{
		model: row{name: "model wait", handle: kindBit(transport.KindHeader)},
		// A new life begins at its re-seed: from its edge, what comes
		// before it was addressed to an older life (resync).
		resync:   row{name: "resync", handle: kindBit(transport.KindHeader) | loopKeys},
		invite:   row{name: "invite wait", handle: loopKeys},
		downlink: row{name: "refinement round", perRound: true, handle: loopKeys},
		// Once an upload could not be sent, only the edge's explanation
		// of it counts.
		grace: row{name: "uplink grace", drop: anyKey,
			handle: verbBit(wire.ControlRoundCutoff) | verbBit(wire.ControlMemberGone) | verbBit(wire.ControlSessionResume)},
	}
)

// errRefused is what a handler returns for a message its state makes a
// protocol violation; route turns it into the refusal.
var errRefused = errors.New("core: refused")

// handler reads a message its phase's row hands it; rec is a control
// frame's record. done ends a Session.Receive wait, and in a gather's
// OnControl excludes the sender from the round.
type handler func(msg transport.Message, rec wire.ControlRecord) (done bool, err error)

// reached is a test seam: when set, it sees each message route hands to
// a handler.
var reached func(ph *row, k key)

// route is one step of a wait in phase ph at round: it decodes a control
// frame's record once and reads the message's cell in ph's row. Dropped
// frames are released by the caller (Session.Receive, Gather), refused
// ones fail with the protocol's one refusal, handled ones go to h.
func route(ph *row, round int, msg transport.Message, h handler) (bool, error) {
	var rec wire.ControlRecord
	if msg.Kind == transport.KindControl {
		var err error
		if rec, err = transport.ParseControl(msg); err != nil {
			if ph.verdict(0) == drop {
				return false, nil
			}
			return false, fmt.Errorf("%w during %s", err, ph.label(round))
		}
	}
	return routeRecord(ph, round, msg, rec, h)
}

// routeRecord is route once the control record, if any, is decoded.
func routeRecord(ph *row, round int, msg transport.Message, rec wire.ControlRecord, h handler) (bool, error) {
	k := key(msg.Kind)
	if msg.Kind == transport.KindControl {
		k = controlKeys + key(rec.Type)
	} else if k >= controlKeys {
		k = 0
	}
	switch ph.verdict(k) {
	case drop:
		return false, nil
	case handle:
		if reached != nil {
			reached(ph, k)
		}
		if done, err := h(msg, rec); err != errRefused {
			return done, err
		}
	}
	return false, transport.Unexpected(msg, rec, ph.label(round))
}

// receive is a Session.Receive wait in phase ph at round.
func receive(ctx context.Context, ses *transport.Session, ph *row, round int, h handler) error {
	return ses.Receive(ctx, func(msg transport.Message) (bool, error) { return route(ph, round, msg, h) })
}

// gatherControl is a gather's OnControl in phase ph at round; h may be
// nil when the row hands no record over.
func gatherControl(ph *row, round int, h handler) func(transport.Message, wire.ControlRecord) (bool, error) {
	return func(msg transport.Message, rec wire.ControlRecord) (bool, error) {
		return routeRecord(ph, round, msg, rec, h)
	}
}
