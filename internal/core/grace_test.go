package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// lostUplinkNet is a memory network whose first send fails, as an
// upload to an edge that already went away (or is restarting) does.
type lostUplinkNet struct {
	*transport.Memory
	failed bool
}

var errLostUplink = errors.New("edge unreachable")

func (n *lostUplinkNet) Send(msg transport.Message) error {
	if !n.failed {
		n.failed = true
		msg.Release()
		return errLostUplink
	}
	return n.Memory.Send(msg)
}

// TestLostUplinkGraceWait drives the device's grace wait — what it reads
// out of its inbox after its round-3 upload could not be sent — over a
// memory transport, once per explanation the edge can have left there.
// Stray traffic ahead of the explanation (a leased downlink, another
// node's cutoff, a cutoff for another round) is dropped, and every frame
// goes back to the pool.
func TestLostUplinkGraceWait(t *testing.T) {
	const round = 3
	ctl := func(from string, rec wire.ControlRecord) transport.Message {
		payload, err := wire.EncodeControl(rec)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Kind: transport.KindControl, From: from, To: "device-0", Round: rec.Round, Payload: payload}
	}
	cutoff := func(r int, done bool) transport.Message {
		return ctl("edge-0", wire.ControlRecord{Type: wire.ControlRoundCutoff, Device: 0, Round: r, Done: done})
	}
	stray := func() []transport.Message {
		buf, raw, err := wire.EncodeLeased(PersonalizedSet{Layers: [][]float32{{1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		return []transport.Message{
			transport.Message{Kind: transport.KindPersonalizedSet, From: "edge-0", To: "device-0", Round: round - 1, Raw: raw}.WithLease(buf),
			ctl("edge-1", wire.ControlRecord{Type: wire.ControlRoundCutoff, Round: round, Done: true}),
			cutoff(round-1, false),
			ctl("edge-0", wire.ControlRecord{Type: wire.ControlJoin, Node: "edge-0"}),
		}
	}
	cases := []struct {
		name    string
		ckpt    bool
		explain []transport.Message
		check   func(t *testing.T, d *deviceRounds, out downlinkOutcome, err error, resent []transport.Message, upload []byte)
	}{
		{"round-cutoff", false, []transport.Message{cutoff(round, false)},
			func(t *testing.T, d *deviceRounds, out downlinkOutcome, err error, resent []transport.Message, _ []byte) {
				if err != nil || !out.cut || out.done {
					t.Fatalf("got cut=%v done=%v err=%v, want cut", out.cut, out.done, err)
				}
			}},
		{"done-cutoff-other-round", false, []transport.Message{cutoff(round+2, true)},
			func(t *testing.T, d *deviceRounds, out downlinkOutcome, err error, resent []transport.Message, _ []byte) {
				if err != nil || !out.cut || !out.done {
					t.Fatalf("got cut=%v done=%v err=%v, want cut and done", out.cut, out.done, err)
				}
			}},
		{"session-resume", true, []transport.Message{ctl("edge-0", wire.ControlRecord{Type: wire.ControlSessionResume, Node: "edge-0", Round: round})},
			func(t *testing.T, d *deviceRounds, out downlinkOutcome, err error, resent []transport.Message, upload []byte) {
				if err != nil || out.cut || out.done || !d.resumed {
					t.Fatalf("got cut=%v done=%v resumed=%v err=%v, want resumed and not cut", out.cut, out.done, d.resumed, err)
				}
				if len(resent) != 1 || resent[0].Kind != transport.KindImportanceSet || resent[0].Round != round ||
					!bytes.Equal(resent[0].Payload, upload) {
					t.Fatalf("edge received %d messages, want the round-%d upload re-sent byte for byte", len(resent), round)
				}
			}},
		{"member-gone", false, []transport.Message{ctl("edge-0", wire.ControlRecord{Type: wire.ControlMemberGone, Round: round})},
			func(t *testing.T, d *deviceRounds, out downlinkOutcome, err error, resent []transport.Message, _ []byte) {
				if !errors.Is(err, errEvicted) {
					t.Fatalf("got %v, want errEvicted", err)
				}
			}},
		{"stray-only", false, nil,
			func(t *testing.T, d *deviceRounds, out downlinkOutcome, err error, resent []transport.Message, _ []byte) {
				if !errors.Is(err, errLostUplink) || out.cut {
					t.Fatalf("got cut=%v err=%v, want the send error", out.cut, err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := wire.Leased()
			mem := transport.NewMemory()
			mem.Register("device-0", 0)
			mem.Register("edge-0", 0)
			for _, msg := range append(stray(), tc.explain...) {
				if err := mem.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			cfg := DefaultConfig()
			if tc.ckpt {
				cfg.Checkpoint.Path = t.TempDir()
			}
			s := &System{Cfg: cfg, Net: &lostUplinkNet{Memory: mem}}
			d := &deviceRounds{
				s: s, ses: transport.NewSession("device-0", s.Net), edge: "edge-0",
				enc: s.uplinkEncoder(), buf: uplinkBuffer{armed: tc.ckpt},
			}
			buf, raw, err := wire.EncodeLeased(ImportanceUpload{DeviceID: 0, Layers: [][]float32{{0.5, 0.25}}})
			if err != nil {
				t.Fatal(err)
			}
			upload := append([]byte(nil), buf.B...)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := d.upload(ctx, round, transport.KindImportanceSet, buf, raw)

			var resent []transport.Message
			for {
				rctx, rcancel := context.WithTimeout(ctx, 10*time.Millisecond)
				msg, rerr := mem.Recv(rctx, "edge-0")
				rcancel()
				if rerr != nil {
					break
				}
				resent = append(resent, msg)
			}
			tc.check(t, d, out, err, resent, upload)
			for _, msg := range resent {
				msg.Release()
			}
			mem.Close()
			if n := wire.Leased(); n != base {
				t.Fatalf("%d frames still leased after the wait, want %d", n, base)
			}
		})
	}
}
