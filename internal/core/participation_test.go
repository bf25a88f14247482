package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// TestFullParticipationIsAnImplicitInvite states the claim the single
// device loop rests on: a fleet in which every round invites the whole
// cluster (a sample fraction whose Sampler.Size is every member)
// computes and uploads exactly what the self-paced fleet does. The only
// thing sampling adds is the ROUND-INVITE control records.
func TestFullParticipationIsAnImplicitInvite(t *testing.T) {
	if testing.Short() {
		t.Skip("four full runs")
	}
	for _, shaped := range []bool{false, true} {
		name := "dense"
		if shaped {
			name = "delta+mixed"
		}
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Fleet.Spec.DevicesPerCluster = 3
			cfg.Phase2Rounds = 4
			cfg.Seed = 1
			if shaped {
				cfg.Wire.DeltaImportance = true
				cfg.Wire.Quantization = QuantMixed
			}
			selfPaced := runCfg(t, cfg)
			cfg.Fleet.SampleFrac = 0.99
			invited := runCfg(t, cfg)

			for _, rs := range invited.Phase2Rounds {
				if rs.SampledCount != 3 {
					t.Fatalf("edge %d round %d invited %d of 3 members: the fraction no longer covers the cluster",
						rs.EdgeID, rs.Round, rs.SampledCount)
				}
			}
			sortReportsByID(selfPaced.Reports)
			sortReportsByID(invited.Reports)
			if !reflect.DeepEqual(selfPaced.Reports, invited.Reports) {
				t.Fatalf("reports differ:\n self-paced %+v\n invited    %+v", selfPaced.Reports, invited.Reports)
			}
			if selfPaced.UploadBytes != invited.UploadBytes || selfPaced.DownlinkBytes != invited.DownlinkBytes {
				t.Fatalf("traffic differs: self-paced %d up / %d down, invited %d up / %d down",
					selfPaced.UploadBytes, selfPaced.DownlinkBytes, invited.UploadBytes, invited.DownlinkBytes)
			}
			if n := selfPaced.Stats.MessagesByKind()[transport.KindControl]; n != 0 {
				t.Fatalf("self-paced run sent %d control records; an implicit invite moves no bytes", n)
			}
			if n := invited.Stats.MessagesByKind()[transport.KindControl]; n == 0 {
				t.Fatal("invited run sent no ROUND-INVITE records")
			}
		})
	}
}

// exchangeTap is a Network that notes, per round, whether every layer
// of one device's delta uploads and delta downlinks travelled dense,
// and calls onUpload after forwarding each of that device's uploads.
type exchangeTap struct {
	transport.Network
	device   string
	onUpload func()

	mu        sync.Mutex
	upDense   map[int][]bool // round → one entry per upload seen
	downDense map[int][]bool
}

func allDense(layers []DeltaLayerPayload) bool {
	for _, l := range layers {
		if !l.Delta.Dense {
			return false
		}
	}
	return true
}

func (n *exchangeTap) Send(msg transport.Message) error {
	switch {
	case msg.From == n.device && msg.Kind == transport.KindImportanceDelta:
		var up DeltaUpload
		if err := wire.Decode(msg.Payload, &up); err != nil {
			return fmt.Errorf("tap: %w", err)
		}
		n.mu.Lock()
		n.upDense[up.Round] = append(n.upDense[up.Round], allDense(up.Layers))
		n.mu.Unlock()
		err := n.Network.Send(msg)
		n.onUpload()
		return err
	case msg.To == n.device && msg.Kind == transport.KindImportanceDownDelta:
		var dd DownlinkDelta
		if err := wire.Decode(msg.Payload, &dd); err != nil {
			return fmt.Errorf("tap: %w", err)
		}
		n.mu.Lock()
		n.downDense[dd.Round] = append(n.downDense[dd.Round], allDense(dd.Layers))
		n.mu.Unlock()
	}
	return n.Network.Send(msg)
}

// TestSampledRejoinReseedsDense: a device that dies mid-run under
// participation sampling and rejoins through RESYNC re-enters at a
// startRound past the rounds it missed, and both directions of its
// delta exchange restart dense there — the edge's side of the reset
// comes from the resync, the device's from being a fresh instance — so
// the cold decoder at either end never meets a sparse record.
func TestSampledRejoinReseedsDense(t *testing.T) {
	if testing.Short() {
		t.Skip("full run with a kill and a rejoin")
	}
	cfg := tinyConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 3
	cfg.Phase2Rounds = 6
	cfg.Fleet.SampleFrac = 0.99 // every member, every round: no gap resets to hide behind
	cfg.Wire.DeltaImportance = true
	cfg.Wire.Quantization = QuantMixed
	victimID, victimEdge := slowDeviceInLargestCluster(t, cfg)
	victim := fmt.Sprintf("device-%d", victimID)

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	// The victim dies the moment its first upload is on its way.
	var once sync.Once
	tap := &exchangeTap{Network: sys.Net, device: victim, onUpload: func() { once.Do(kill) },
		upDense: map[int][]bool{}, downDense: map[int][]bool{}}
	sys.Net = tap
	run := startRoles(ctx, cancel, sys.RoleNames(), func(string) *System { return sys }, victim, victimCtx)
	select {
	case <-run.victimDone:
	case <-ctx.Done():
		t.Fatal("victim never died")
	}
	run.finish("rejoined "+victim, nil, sys.RejoinRole(ctx, victim))
	if reports := run.wait(t); len(reports) != len(sys.Devices()) {
		t.Fatalf("run completed without every device reporting: %+v", reports)
	}

	// The edge stamped the re-entry round on the resync it served.
	rejoin := -1
	for _, rs := range sys.phase2RoundsCopy() {
		if rs.EdgeID == victimEdge && rs.ResyncCount > 0 {
			rejoin = rs.Round + 1
		}
	}
	if rejoin <= 0 || rejoin >= cfg.Phase2Rounds {
		t.Fatalf("rejoin round %d is not mid-run (0 < r < %d)", rejoin, cfg.Phase2Rounds)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if up := tap.upDense[rejoin]; len(up) != 1 || !up[0] {
		t.Fatalf("round %d uploads from the rejoined device, all-dense: %v; want one, dense", rejoin, up)
	}
	if down := tap.downDense[rejoin]; len(down) != 1 || !down[0] {
		t.Fatalf("round %d downlinks to the rejoined device, all-dense: %v; want one, dense", rejoin, down)
	}
	// And the exchange went sparse again afterwards.
	sparse := false
	for r := rejoin + 1; r < cfg.Phase2Rounds; r++ {
		for _, dense := range append(tap.upDense[r], tap.downDense[r]...) {
			sparse = sparse || !dense
		}
	}
	if rejoin+1 < cfg.Phase2Rounds && !sparse {
		t.Fatalf("no sparse record after the re-seed (uploads %v, downlinks %v)", tap.upDense, tap.downDense)
	}
}

// leaveAt is where lateLeave delivers its LEAVE.
type leaveAt int

const (
	afterResync leaveAt = iota // right after the successor's RESYNC-REQUEST
	atInvite                   // as the edge invites the successor to its first round
)

// uploadKill is a Network that calls kill once device has sent its
// first importance upload: mid-loop, after setup completed.
type uploadKill struct {
	transport.Network
	device string
	kill   func()
	once   sync.Once
}

func (n *uploadKill) Send(msg transport.Message) error {
	err := n.Network.Send(msg)
	if msg.From == n.device && (msg.Kind == transport.KindImportanceSet || msg.Kind == transport.KindImportanceDelta) {
		n.once.Do(n.kill)
	}
	return err
}

// lateLeave is an uploadKill that, at the point at names, sends the
// device's edge a LEAVE from the device's node name: the dead
// predecessor's teardown, stamped with its setup life (0) and arriving
// behind its successor's rejoin, as it can over TCP, where the two
// instances hold different connections. With own set, it sends nothing
// itself but calls own at that point to kill the successor, whose own
// LEAVE is the one its dying role sends.
type lateLeave struct {
	uploadKill
	edge string
	at   leaveAt
	own  func()
	left sync.Once
	// headers counts the model packages sent to the device: the second
	// is the successor's re-seed.
	headers atomic.Int32
}

func (n *lateLeave) Send(msg transport.Message) error {
	var rec wire.ControlRecord
	if msg.Kind == transport.KindControl {
		rec, _ = transport.ParseControl(msg)
	}
	switch {
	case msg.From == n.device && rec.Type == wire.ControlResyncRequest && n.at == afterResync:
		err := n.Network.Send(msg)
		n.left.Do(n.leave)
		return err
	case msg.To == n.device && msg.Kind == transport.KindHeader:
		n.headers.Add(1)
	case msg.To == n.device && rec.Type == wire.ControlRoundInvite && n.at == atInvite && n.headers.Load() == 2:
		if n.own != nil {
			n.left.Do(n.own)
		} else {
			n.left.Do(n.leave)
		}
	}
	return n.uploadKill.Send(msg)
}

// leave sends the device's edge its dead predecessor's LEAVE.
func (n *lateLeave) leave() {
	payload, err := wire.EncodeControl(wire.ControlRecord{Type: wire.ControlLeave, Node: n.device})
	if err != nil {
		panic(err)
	}
	_ = n.Network.Send(transport.Message{Kind: transport.KindControl, From: n.device, To: n.edge, Payload: payload})
}

// lateLeaveOutcome is what a lateLeave run came to at the victim's edge.
type lateLeaveOutcome struct {
	rejoin   int          // the successor's life: the round after the one its RESYNC-REQUEST landed in
	sampled  map[int]bool // the rounds that sampled the victim
	reported bool
	err      error // the roles' errors, or why the run could not start
}

// lateLeaveConfig is the sampled fleet the late-LEAVE runs churn: at a
// fraction that invites every eligible member, a live device is sampled
// in every round.
func lateLeaveConfig() Config {
	cfg := tinyConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 3
	cfg.Phase2Rounds = 6
	cfg.Fleet.SampleFrac = 0.99
	return cfg
}

// runLateLeave runs cfg with device victimID of edge victimEdge killed
// after its first upload and rejoined, over a lateLeave delivering its
// LEAVE at the point at names. ctx bounds the run and cancel ends it; it fails no test,
// so a bubble's goroutine can call it.
func runLateLeave(ctx context.Context, cancel context.CancelFunc, cfg Config, victimID, victimEdge int, at leaveAt, own bool) lateLeaveOutcome {
	victim := fmt.Sprintf("device-%d", victimID)
	sys, err := NewSystem(cfg)
	if err != nil {
		return lateLeaveOutcome{err: err}
	}
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	rebornCtx, killReborn := context.WithCancel(ctx)
	defer killReborn()
	net := &lateLeave{uploadKill: uploadKill{Network: sys.Net, device: victim, kill: kill}, edge: edgeName(victimEdge), at: at}
	if own {
		net.own = killReborn
	}
	sys.Net = net
	run := startRoles(ctx, cancel, sys.RoleNames(), func(string) *System { return sys }, victim, victimCtx)
	select {
	case <-run.victimDone:
	case <-ctx.Done():
		return lateLeaveOutcome{err: errors.New("victim never died")}
	}
	if err := sys.RejoinRole(rebornCtx, victim); !own || !errors.Is(err, context.Canceled) {
		run.finish("rejoined "+victim, nil, err)
	}
	out := lateLeaveOutcome{rejoin: -1, sampled: map[int]bool{}}
	var reports []DeviceReport
	reports, out.err = run.result()
	for _, rep := range reports {
		out.reported = out.reported || rep.DeviceID == victimID
	}
	for _, rs := range sys.phase2RoundsCopy() {
		if rs.EdgeID != victimEdge {
			continue
		}
		out.sampled[rs.Round] = slices.Contains(rs.Sampled, victimID)
		if rs.ResyncCount > 0 {
			out.rejoin = rs.Round + 1
		}
	}
	return out
}

// check fails t unless the run completed with the successor in the
// loop from its rejoin round on and reporting — or, when own, with the
// successor departed once its own LEAVE landed: sampled in its rejoin
// round, in no round after the first one that left it out, and not
// reporting. Its role sends that LEAVE as it dies, so the round it lands
// in is not fixed; the report phase would wait for the device forever
// if the edge ignored it.
func (out lateLeaveOutcome) check(t *testing.T, rounds int, own bool) {
	t.Helper()
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.rejoin <= 0 || out.rejoin >= rounds {
		t.Fatalf("rejoin round %d is not mid-run (0 < r < %d)", out.rejoin, rounds)
	}
	left := false
	for r := out.rejoin; r < rounds; r++ {
		left = left || own && r > out.rejoin && !out.sampled[r]
		if out.sampled[r] == left {
			t.Errorf("round %d sampled the rejoined device: %v, want %v", r, out.sampled[r], !left)
		}
	}
	if out.reported == own {
		t.Errorf("the rejoined device reported: %v, want %v", out.reported, !own)
	}
}

// TestLateLeaveKeepsRejoinedDeviceSampled: a dead predecessor's LEAVE
// that arrives after its successor's RESYNC-REQUEST is stamped with an
// older life, and the edge ignores it in whatever round it lands: in
// the round the RESYNC-REQUEST landed in, or in the successor's first
// round, where a round-based guard once departed the live device and
// hung the run. The successor is then sampled in every round from its
// rejoin round on, and it reports. Killed at its first invite, the
// successor's role sends its own LEAVE, stamped with its life, and that
// LEAVE still departs it.
func TestLateLeaveKeepsRejoinedDeviceSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs with a kill and a rejoin")
	}
	cfg := lateLeaveConfig()
	victimID, victimEdge := slowDeviceInLargestCluster(t, cfg)
	for _, c := range []struct {
		name string
		at   leaveAt
		own  bool
	}{
		{"predecessor-after-resync", afterResync, false},
		{"predecessor-at-invite", atInvite, false},
		{"own-at-invite", atInvite, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := cappedContext(t, runLimit)
			defer cancel()
			runLateLeave(ctx, cancel, cfg, victimID, victimEdge, c.at, c.own).check(t, cfg.Phase2Rounds, c.own)
		})
	}
}
