package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// oneCluster is tinyConfig with one edge serving n devices.
func oneCluster(n int) Config {
	cfg := tinyConfig()
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.Clusters = 1
	cfg.Fleet.Spec.DevicesPerCluster = n
	return cfg
}

// reportPhase runs edge 0's report phase alone over net, as if its loop
// had just ended with every member still in the run.
func reportPhase(ctx context.Context, sys *System, net transport.Network) ([]DeviceReport, error) {
	ses := transport.NewSession(edgeName(0), net)
	st := sys.newEdgeState(0, ses, HeaderPackage{}, nil)
	return awaitReports(ctx, ses, st.posByName, st.idByPos, &st.loopState)
}

// reportFrom is a report for device id, sent by from.
func reportFrom(t *testing.T, from string, id int) transport.Message {
	t.Helper()
	payload, err := wire.Encode(DeviceReport{DeviceID: id, AccuracyFinal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return transport.Message{Kind: transport.KindReport, From: from, To: edgeName(0), Payload: payload}
}

// controlFrom is a control record of type typ, sent by from.
func controlFrom(t *testing.T, from string, typ wire.ControlType) transport.Message {
	t.Helper()
	payload, err := wire.EncodeControl(wire.ControlRecord{Type: typ, Node: from})
	if err != nil {
		t.Fatal(err)
	}
	return transport.Message{Kind: transport.KindControl, From: from, To: edgeName(0), Payload: payload}
}

// TestReportPhaseEndsOnMemberLeave: a member that LEAVEs after the last
// round will never report, so the phase must end on the other members'
// reports instead of waiting for it until the run times out.
func TestReportPhaseEndsOnMemberLeave(t *testing.T) {
	net := &scriptedNet{msgs: []transport.Message{
		controlFrom(t, "device-2", wire.ControlJoin),
		reportFrom(t, "device-0", 0),
		controlFrom(t, "device-2", wire.ControlLeave),
		reportFrom(t, "device-1", 1),
	}}
	sys, err := NewSystemWithNetwork(oneCluster(3), net)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reports, err := reportPhase(ctx, sys, net)
	if err != nil {
		t.Fatalf("report phase did not end on the departed member's LEAVE: %v", err)
	}
	if len(reports) != 2 || reports[0].DeviceID != 0 || reports[1].DeviceID != 1 {
		t.Fatalf("got reports %+v, want devices 0 and 1", reports)
	}
}

// retainTap hands each received frame on with one extra reference and
// keeps it, so a test can tell how often the receiver released it.
type retainTap struct {
	transport.Network
	got []transport.Message
}

func (n *retainTap) Recv(ctx context.Context, node string) (transport.Message, error) {
	msg, err := n.Network.Recv(ctx, node)
	if err == nil {
		msg.Retain()
		n.got = append(n.got, msg)
	}
	return msg, err
}

func releasePanics(msg transport.Message) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	msg.Release()
	return false
}

// releasedOnce reports whether the receiver released a tapped frame
// exactly once: the tap's reference is then the last, so one Release
// frees the frame and the next one panics.
func releasedOnce(msg transport.Message) bool {
	return !releasePanics(msg) && releasePanics(msg)
}

// TestReportPhaseReleasesEveryFrame: the report phase decodes each
// report and parses each control record into scalars, so it owes every
// frame back to its pool once handled — noise, a cut straggler's late
// upload and reports alike, and the frame it refuses too. The frames
// arrive over a loopback socket, pooled the way TCP reads them.
func TestReportPhaseReleasesEveryFrame(t *testing.T) {
	sys, err := NewSystem(oneCluster(2))
	if err != nil {
		t.Fatal(err)
	}
	// deliver runs the phase over msgs, sent in order on one connection,
	// and fails t unless every frame it received was released once.
	deliver := func(msgs ...transport.Message) (int, []DeviceReport, error) {
		t.Helper()
		edge, err := transport.NewTCP(edgeName(0), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer edge.Close()
		script, err := transport.NewTCP("script", "127.0.0.1:0", map[string]string{edgeName(0): edge.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer script.Close()
		for _, msg := range msgs {
			if err := script.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tap := &retainTap{Network: edge}
		reports, err := reportPhase(ctx, sys, tap)
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("report phase neither finished nor refused: %v", err)
		}
		for i, msg := range tap.got {
			if !releasedOnce(msg) {
				t.Fatalf("frame %d (%v from %s) was not released exactly once", i, msg.Kind, msg.From)
			}
		}
		return len(tap.got), reports, err
	}

	stale := transport.Message{Kind: transport.KindImportanceDelta, From: "device-1", To: edgeName(0), Round: 1, Payload: []byte("x")}
	clean := []transport.Message{
		controlFrom(t, "cloud", wire.ControlLeave),
		controlFrom(t, "device-0", wire.ControlResyncRequest),
		stale,
		reportFrom(t, "device-1", 1),
		reportFrom(t, "device-0", 0),
	}
	n, reports, err := deliver(clean...)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(clean) || len(reports) != 2 {
		t.Fatalf("phase read %d of %d frames and returned %d reports, want all and 2", n, len(clean), len(reports))
	}

	garbled := reportFrom(t, "device-0", 0)
	garbled.Payload = garbled.Payload[:1]
	refused := map[string][]transport.Message{
		"duplicate report":   {reportFrom(t, "device-1", 1), reportFrom(t, "device-1", 1)},
		"undecodable report": {garbled},
		"device outside":     {reportFrom(t, "device-9", 9)},
		"another device's":   {reportFrom(t, "device-0", 1)},
		"unexpected control": {controlFrom(t, "device-0", wire.ControlRoundCutoff)},
		"unexpected kind":    {{Kind: transport.KindStats, From: "device-0", To: edgeName(0), Payload: []byte("x")}},
	}
	for name, msgs := range refused {
		if _, _, err := deliver(msgs...); err == nil {
			t.Fatalf("%s: report phase accepted it", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
