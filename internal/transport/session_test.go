package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"acme/internal/wire"
)

func gatherNet(t *testing.T, node string) *Memory {
	t.Helper()
	m := NewMemory()
	m.Register(node, 64)
	return m
}

func TestGatherCollectsAllExpected(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	for _, from := range []string{"a", "b", "c"} {
		if err := m.Send(Message{Kind: KindImportanceSet, From: from, To: "edge", Round: 2}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	res, err := ses.Gather(context.Background(), GatherSpec{
		Round:  2,
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a", "b", "c"},
		OnMessage: func(msg Message) error {
			got = append(got, msg.From)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || res.Gathered != 3 {
		t.Fatalf("gathered %v (%d)", got, res.Gathered)
	}
	if len(res.Missing) != 0 || res.Stale != 0 {
		t.Fatalf("clean gather reported missing %v stale %d", res.Missing, res.Stale)
	}
}

func TestGatherPerPeerCountsMultipleKinds(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	// Each device owes a stats and a provision message, arriving
	// interleaved — the setup gather's shape.
	for _, from := range []string{"a", "b"} {
		m.Send(Message{Kind: KindStats, From: from, To: "edge"})
	}
	for _, from := range []string{"b", "a"} {
		m.Send(Message{Kind: KindProvision, From: from, To: "edge"})
	}
	n := 0
	res, err := ses.Gather(context.Background(), GatherSpec{
		Kinds:     []Kind{KindStats, KindProvision},
		Expect:    []string{"a", "b"},
		PerPeer:   2,
		Label:     "setup",
		OnMessage: func(Message) error { n++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || res.Gathered != 4 {
		t.Fatalf("gathered %d messages, want 4", n)
	}
}

func TestGatherQuorumCutoffReportsMissing(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	// Only 3 of 4 expected uploads arrive; quorum 0.75 (ceil → 3) is
	// met, so the deadline must cut the gather instead of hanging.
	for _, from := range []string{"a", "b", "d"} {
		m.Send(Message{Kind: KindImportanceSet, From: from, To: "edge", Round: 0})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	res, err := ses.Gather(ctx, GatherSpec{
		Kinds:    []Kind{KindImportanceSet},
		Expect:   []string{"a", "b", "c", "d"},
		Quorum:   0.75,
		Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cutoff gather did not return promptly")
	}
	if len(res.Missing) != 1 || res.Missing[0] != "c" {
		t.Fatalf("missing %v, want [c]", res.Missing)
	}
	if res.Wall < 50*time.Millisecond {
		t.Fatalf("gather wall %v below the straggler deadline", res.Wall)
	}
}

func TestGatherWaitsForQuorumPastDeadline(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	// One of two uploads arrives late, after the deadline. Quorum 0.5
	// needs ceil(1) = 1 contribution, so the gather must keep waiting
	// past the deadline until the first upload lands, then cut.
	go func() {
		time.Sleep(120 * time.Millisecond)
		m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 0})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := ses.Gather(ctx, GatherSpec{
		Kinds:    []Kind{KindImportanceSet},
		Expect:   []string{"a", "b"},
		Quorum:   0.5,
		Deadline: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gathered != 1 || len(res.Missing) != 1 || res.Missing[0] != "b" {
		t.Fatalf("gathered %d, missing %v", res.Gathered, res.Missing)
	}
}

func TestGatherStaleRounds(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	// A cut straggler's round-1 upload arrives during round 2.
	m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 1})
	m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 2})
	res, err := ses.Gather(context.Background(), GatherSpec{
		Round:    2,
		Kinds:    []Kind{KindImportanceSet},
		Expect:   []string{"a"},
		Tolerant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale != 1 || res.Gathered != 1 {
		t.Fatalf("stale %d gathered %d", res.Stale, res.Gathered)
	}

	// Without Tolerant the same arrival is a loud protocol violation.
	m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 1})
	m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 2})
	_, err = ses.Gather(context.Background(), GatherSpec{
		Round:  2,
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a"},
		Label:  "aggregation round 2",
	})
	if err == nil || !strings.Contains(err.Error(), "carries round 1") {
		t.Fatalf("stale upload not rejected: %v", err)
	}
}

func TestGatherControlExcludesPeer(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	// Device b resyncs mid-gather instead of uploading: the control
	// handler excludes it, and the gather completes with a's upload.
	peer := NewSession("b", m)
	if err := peer.SendControl("edge", wire.ControlRecord{Type: wire.ControlResyncRequest, Node: "b", Device: 1}); err != nil {
		t.Fatal(err)
	}
	m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 0})
	var seen wire.ControlRecord
	res, err := ses.Gather(context.Background(), GatherSpec{
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a", "b"},
		OnControl: func(msg Message, rec wire.ControlRecord) (bool, error) {
			seen = rec
			return true, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Type != wire.ControlResyncRequest || seen.Device != 1 {
		t.Fatalf("control record %+v", seen)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != "b" {
		t.Fatalf("excluded %v", res.Excluded)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("excluded peer still reported missing: %v", res.Missing)
	}
}

// TestGatherLeaveExcludesPeerWithoutHandler: with an explicit Expect
// and no OnControl, a LEAVE from an expected peer excludes it, and the
// gather ends on the other peers' uploads instead of waiting on it.
func TestGatherLeaveExcludesPeerWithoutHandler(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	for _, from := range []string{"a", "b"} {
		m.Send(Message{Kind: KindImportanceSet, From: from, To: "edge", Round: 1, Payload: []byte{1, 2, 3}})
	}
	if err := NewSession("c", m).SendControl("edge", wire.ControlRecord{Type: wire.ControlLeave, Node: "c"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := ses.Gather(ctx, GatherSpec{
		Round:  1,
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a", "b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gathered != 2 {
		t.Fatalf("gathered %d uploads, want 2", res.Gathered)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != "c" {
		t.Fatalf("LEAVE did not exclude the departed peer: %v", res.Excluded)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("shrunk gather still reports missing peers: %v", res.Missing)
	}
}

func TestGatherRejectsUnexpectedKindAndControl(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	m.Send(Message{Kind: KindBackbone, From: "x", To: "edge"})
	_, err := ses.Gather(context.Background(), GatherSpec{
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a"},
		Label:  "setup",
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected backbone from x during setup") {
		t.Fatalf("unexpected kind not rejected: %v", err)
	}

	// A control record with no handler is a protocol violation too.
	peer := NewSession("x", m)
	peer.SendControl("edge", wire.ControlRecord{Type: wire.ControlJoin, Node: "x"})
	_, err = ses.Gather(context.Background(), GatherSpec{
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a"},
	})
	if err == nil || !strings.Contains(err.Error(), "control") {
		t.Fatalf("handlerless control not rejected: %v", err)
	}
}

func TestGatherDeliversUnexpectedSenderToCallback(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	// Uploads from outside Expect still reach OnMessage so role-level
	// validation (unknown device, duplicate) rejects them loudly.
	m.Send(Message{Kind: KindImportanceSet, From: "intruder", To: "edge", Round: 0})
	_, err := ses.Gather(context.Background(), GatherSpec{
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a"},
		OnMessage: func(msg Message) error {
			return fmt.Errorf("upload from %s rejected by role", msg.From)
		},
	})
	if err == nil || !strings.Contains(err.Error(), "intruder") {
		t.Fatalf("intruder upload bypassed the callback: %v", err)
	}
}

func TestSessionControlRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Register("edge", 4)
	ses := NewSession("device-0", m)
	rec := wire.ControlRecord{Type: wire.ControlRoundCutoff, Device: 3, Round: 5, Done: true}
	if err := ses.SendControl("edge", rec); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv(context.Background(), "edge")
	if err != nil {
		t.Fatal(err)
	}
	if msg.Round != 5 {
		t.Fatalf("control message round %d", msg.Round)
	}
	got, err := ParseControl(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("control round trip: %+v vs %+v", got, rec)
	}
	if _, err := ParseControl(Message{Kind: KindStats}); err == nil {
		t.Fatal("ParseControl accepted a non-control kind")
	}
}

// TestStatsReceivedConcurrentSenders hammers the received-side counters
// from concurrent senders and receivers — the race detector guards the
// Stats lock discipline (run under make race / CI's -race step).
func TestStatsReceivedConcurrentSenders(t *testing.T) {
	m := NewMemory()
	m.Register("sink", 1024)
	const senders, per, readers = 8, 25, 4
	var sendWG sync.WaitGroup
	for s := 0; s < senders; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			for i := 0; i < per; i++ {
				kind := KindImportanceSet
				if i%2 == 0 {
					kind = KindImportanceDelta
				}
				_ = m.Send(Message{Kind: kind, From: fmt.Sprintf("dev-%d", s), To: "sink", Payload: make([]byte, 32)})
			}
		}(s)
	}
	var recvWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		recvWG.Add(1)
		go func() {
			defer recvWG.Done()
			for i := 0; i < senders*per/readers; i++ {
				if _, err := m.Recv(context.Background(), "sink"); err != nil {
					t.Error(err)
					return
				}
				// Interleave reads of the counters with the recording.
				_ = m.Stats().ReceivedBytesByKind()
				_ = m.Stats().TotalReceivedMessages()
			}
		}()
	}
	sendWG.Wait()
	recvWG.Wait()
	st := m.Stats()
	if st.TotalReceivedMessages() != senders*per {
		t.Fatalf("received %d messages, want %d", st.TotalReceivedMessages(), senders*per)
	}
	if st.TotalReceivedBytes() != st.TotalBytes() {
		t.Fatalf("received %d bytes vs sent %d", st.TotalReceivedBytes(), st.TotalBytes())
	}
	// Each sender alternates kinds starting with delta: 13 delta + 12
	// dense per 25 messages.
	recvMsgs := st.ReceivedMessagesByKind()
	if recvMsgs[KindImportanceDelta] != senders*13 || recvMsgs[KindImportanceSet] != senders*12 {
		t.Fatalf("per-kind received counts %v, want %d delta / %d dense", recvMsgs, senders*13, senders*12)
	}
}

// TestSendControlEncodesOnce: SendControl sizes and encodes a control
// record once, carries the record's raw size for the accounting, and
// leaves no pooled Buffer leased; a memory-transport send, receive and
// release allocates twice per control message (the record boxed for
// the encoder, the copied frame), where sizing the record a second time
// for Message.Raw took three.
func TestSendControlEncodesOnce(t *testing.T) {
	m := NewMemory()
	m.Register("edge", 4)
	ses := NewSession("device-0", m)
	rec := wire.ControlRecord{Type: wire.ControlRoundInvite, Node: "device-0", Device: 7, Round: 12}
	start := wire.Leased()
	if err := ses.SendControl("edge", rec); err != nil {
		t.Fatal(err)
	}
	if n := wire.Leased() - start; n != 0 {
		t.Fatalf("%d frames leased by a control send", n)
	}
	msg, err := m.Recv(context.Background(), "edge")
	if err != nil {
		t.Fatal(err)
	}
	if msg.Raw != wire.RawSize(rec) {
		t.Fatalf("control message raw size %d, want %d", msg.Raw, wire.RawSize(rec))
	}
	if got, err := ParseControl(msg); err != nil || got != rec {
		t.Fatalf("control round trip: %+v, %v", got, err)
	}
	msg.Release()
	if err := ses.SendControl("edge", wire.ControlRecord{}); err == nil {
		t.Fatal("a control record of unknown type was sent")
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops pooled buffers at random
	}
	send := func() {
		if err := ses.SendControl("edge", rec); err != nil {
			t.Fatal(err)
		}
		msg, err := m.Recv(context.Background(), "edge")
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
	}
	if n := testing.AllocsPerRun(100, send); n > 2 {
		t.Fatalf("a control send allocates %v times, want at most 2", n)
	}
}
