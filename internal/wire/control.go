package wire

import "fmt"

// ControlType enumerates the session control-plane verbs carried over
// the transport's KindControl channel. The control plane is what makes
// churn, stragglers, and reconnects first-class in the protocol:
// JOIN/LEAVE supervise the link itself, RESYNC-REQUEST re-enters a
// churned device into the delta exchange, and ROUND-CUTOFF tells a
// straggler its upload missed the quorum combine.
type ControlType uint8

// Control-plane record types.
const (
	// ControlJoin announces a live link. On TCP it is the handshake a
	// dialing node sends first on a fresh connection, letting the
	// acceptor reuse that connection for replies instead of dialing
	// back (connection multiplexing).
	ControlJoin ControlType = iota + 1
	// ControlLeave announces a deliberate teardown: the peer is going
	// away and reconnect attempts are pointless. Sent best-effort on
	// Close and consumed by the TCP link layer (peers fail fast), which
	// also forwards it to the role: an edge drops a member that LEAVEs
	// from the remaining rounds and stops waiting for its report.
	ControlLeave
	// ControlResyncRequest is sent by a device that missed rounds
	// (killed and restarted, or partitioned): it asks its edge for a
	// dense re-seed — the model package plus a rejoin round — so it can
	// re-enter the sparse exchange without restarting the run.
	ControlResyncRequest
	// ControlRoundCutoff is sent by an edge to a device whose upload
	// missed the straggler deadline: the round was combined without it
	// and both ends must drop their delta shadows (the device's next
	// upload travels dense). Done marks the final round, ending the
	// device's loop. With participation sampling it doubles as the
	// end-of-run signal to live devices the final round did not sample.
	ControlRoundCutoff
	// ControlRoundInvite is sent by an edge to each device its
	// per-round participation sample selected: the device computes and
	// uploads its round-Round importance set, then waits for the
	// personalized downlink. Devices the sample skipped stay idle (no
	// importance compute, no traffic) until a later invite or a Done
	// cutoff — so per-round cost scales with the sampled count, not the
	// fleet size.
	ControlRoundInvite
	// ControlMemberGone is the eviction notice an edge sends a device
	// whose uploads its Byzantine detector struck out: the device is out
	// of the run, receives nothing more, and exits without reporting.
	ControlMemberGone
	// ControlSessionResume is broadcast by an edge that restarted from
	// a durable checkpoint: Round names the round the snapshot resumes
	// at, and every device must retransmit its buffered uploads for
	// that round onward (the originals may have died in the crashed
	// process's inbox). Uploads the edge had already folded arrive a
	// second time; the resumed session tolerates duplicates inside the
	// resume window instead of erroring.
	ControlSessionResume
)

// String implements fmt.Stringer.
func (t ControlType) String() string {
	switch t {
	case ControlJoin:
		return "join"
	case ControlLeave:
		return "leave"
	case ControlResyncRequest:
		return "resync-request"
	case ControlRoundCutoff:
		return "round-cutoff"
	case ControlRoundInvite:
		return "round-invite"
	case ControlMemberGone:
		return "member-gone"
	case ControlSessionResume:
		return "session-resume"
	default:
		return fmt.Sprintf("ControlType(%d)", uint8(t))
	}
}

// Valid reports whether t is a known control verb.
func (t ControlType) Valid() bool {
	return t >= ControlJoin && t <= ControlSessionResume
}

// ControlRecord is the typed payload of every control-plane message.
// Control records always travel in this package's binary encoding
// regardless of the run's configured payload codec: they are owned by
// the transport layer, which has no knowledge of the application codec.
type ControlRecord struct {
	Type ControlType
	// Node is the sender's node name (link-level records).
	Node string
	// Device is the device ID the record concerns (resync, cutoff).
	Device int
	// Round is the loop round the record refers to: the round a
	// cutoff combined without the device, or unset for link records.
	Round int
	// Done marks a ROUND-CUTOFF for the final round: the loop ended
	// and the device should finalize instead of rejoining next round.
	Done bool
}

// WireFields states the control record's schema.
func (r *ControlRecord) WireFields(f *Fields) {
	f.Struct(5)
	f.Uint8((*uint8)(&r.Type))
	f.String(&r.Node)
	f.Int(&r.Device)
	f.Int(&r.Round)
	f.Bool(&r.Done)
}

// WireValue lets Encode and RawSize take a control record by value.
func (r ControlRecord) WireValue(f *Fields) { r.WireFields(f) }

// EncodeControl serializes a control record.
func EncodeControl(rec ControlRecord) ([]byte, error) {
	out, _, err := EncodeControlSized(rec)
	return out, err
}

// EncodeControlSized is EncodeControl that also returns the record's
// RawSize, for the message's raw accounting: one walk sizes the record
// and one encodes it. The frame is copied out of its pooled Buffer,
// which goes straight back: a control frame is a few dozen bytes, and
// sent as a lease it would park a pooled Buffer, often one an upload
// grew to tens of kilobytes, in the receiver's inbox.
func EncodeControlSized(rec ControlRecord) ([]byte, int, error) {
	if !rec.Type.Valid() {
		return nil, 0, fmt.Errorf("wire: cannot encode control record of unknown type %d", uint8(rec.Type))
	}
	return encodeCopy(rec)
}

// DecodeControl deserializes a control record, rejecting unknown verbs
// so a byzantine control payload surfaces as an error rather than an
// unhandled zero record.
func DecodeControl(data []byte) (ControlRecord, error) {
	var rec ControlRecord
	if err := Decode(data, &rec); err != nil {
		return ControlRecord{}, err
	}
	if !rec.Type.Valid() {
		return ControlRecord{}, fmt.Errorf("wire: control record with unknown type %d", uint8(rec.Type))
	}
	return rec, nil
}
