package transport_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"acme/internal/core"
	"acme/internal/data"
	"acme/internal/transport"
	"acme/internal/wire"
)

// destroyingNet hands every received message over in a frame that is
// destroyed when released (when destroy is set), and keeps the model
// package the edge sent device-0.
type destroyingNet struct {
	transport.Network
	destroy bool

	mu      sync.Mutex
	header0 []byte
}

func (n *destroyingNet) Send(msg transport.Message) error {
	if msg.Kind == transport.KindHeader && msg.To == "device-0" {
		n.mu.Lock()
		n.header0 = append([]byte(nil), msg.Payload...)
		n.mu.Unlock()
	}
	return n.Network.Send(msg)
}

func (n *destroyingNet) Recv(ctx context.Context, node string) (transport.Message, error) {
	msg, err := n.Network.Recv(ctx, node)
	if err != nil || !n.destroy {
		return msg, err
	}
	return transport.DestroyOnRelease(msg), nil
}

// reseedNet is all a rejoining device-0 needs of its peers: the edge's
// dense re-seed, stamped with the round past the last so the device has
// no loop left to play, and somewhere for its sends to go.
type reseedNet struct {
	reseed  []byte
	round   int
	destroy bool
	served  bool
}

func (n *reseedNet) Send(transport.Message) error { return nil }

func (n *reseedNet) Recv(ctx context.Context, _ string) (transport.Message, error) {
	if n.served {
		<-ctx.Done()
		return transport.Message{}, ctx.Err()
	}
	n.served = true
	msg := transport.Message{Kind: transport.KindHeader, From: "edge-0", To: "device-0", Round: n.round, Payload: n.reseed}
	if n.destroy {
		msg = transport.DestroyOnRelease(msg)
	}
	return msg, nil
}

// releaseConfig is a one-edge, two-device pipeline small enough to run
// in well under a second, with quantized model payloads: their
// parameter blobs decode zero-copy, as aliases of the frame.
func releaseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Backbone.InputDim = 64
	cfg.Backbone.NumPatches = 4
	cfg.Backbone.DModel = 16
	cfg.Backbone.NumHeads = 2
	cfg.Backbone.Hidden = 24
	cfg.Backbone.Depth = 2
	cfg.Dataset = data.CIFAR100Like()
	cfg.Dataset.NumClasses = 20
	cfg.Dataset.NumSuper = 4
	cfg.NumClasses = 20
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.Clusters = 1
	cfg.Fleet.Spec.DevicesPerCluster = 2
	cfg.SamplesPerDevice = 60
	cfg.ClassesPerDevice = 6
	cfg.PublicSamples = 120
	cfg.PretrainEpochs = 1
	cfg.CloudProbe = 40
	cfg.Widths = []float64{0.5, 1.0}
	cfg.Depths = []int{1, 2}
	cfg.Distill.Epochs = 1
	cfg.Search.Epochs = 1
	cfg.Search.ChildBatches = 2
	cfg.Search.ControllerSamples = 2
	cfg.Search.ControllerUpdates = 1
	cfg.Search.FinalCandidates = 2
	cfg.Search.RewardProbe = 20
	cfg.Search.Blocks = 2
	cfg.Search.Hidden = 12
	cfg.Phase2Rounds = 2
	cfg.DiscardPerRound = 2
	cfg.LocalEpochs = 1
	cfg.ProbeSize = 8
	cfg.Wire.Quantization = core.QuantInt8
	cfg.Wire.DeltaImportance = true
	return cfg
}

// finalModel returns a device's checkpointed final model, flattened.
func finalModel(t *testing.T, dir string, id int) []float64 {
	t.Helper()
	bb, h, err := core.LoadDeviceCheckpoint(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, p := range append(bb.Params(), h.Params()...) {
		flat = append(flat, p.Value.Data...)
	}
	return flat
}

// TestRolesSurviveReleasedFrames runs the pipeline once over the plain
// in-memory network and once over frames destroyed on release, then a
// device's RESYNC rejoin the same two ways. Every role releases its
// frames (Session.Receive, Gather), so one that reads anything aliasing
// a frame after its handler returned — a model built from blobs left
// dangling — ends with a different model; both pairs must end with the
// same reports and bit-equal device models.
func TestRolesSurviveReleasedFrames(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var reseed []byte
	run := func(destroy bool) ([]core.DeviceReport, [][]float64) {
		t.Helper()
		cfg := releaseConfig()
		cfg.CheckpointDir = t.TempDir()
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net := &destroyingNet{Network: sys.Net, destroy: destroy}
		sys.Net = net
		res, err := sys.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reseed = net.header0
		var models [][]float64
		for _, r := range res.Reports {
			models = append(models, finalModel(t, cfg.CheckpointDir, r.DeviceID))
		}
		return res.Reports, models
	}
	want, wantModels := run(false)
	got, gotModels := run(true)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reports differ once frames are destroyed on release:\n plain     %+v\n destroyed %+v", want, got)
	}
	if !reflect.DeepEqual(wantModels, gotModels) {
		t.Fatal("final models differ once frames are destroyed on release")
	}

	rejoin := func(destroy bool) []float64 {
		t.Helper()
		cfg := releaseConfig()
		cfg.CheckpointDir = t.TempDir()
		sys, err := core.NewSystemWithNetwork(cfg, &reseedNet{reseed: reseed, round: cfg.Phase2Rounds, destroy: destroy})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RejoinRole(ctx, "device-0"); err != nil {
			t.Fatal(err)
		}
		return finalModel(t, cfg.CheckpointDir, 0)
	}
	if !reflect.DeepEqual(rejoin(false), rejoin(true)) {
		t.Fatal("a rejoined device's model differs once its re-seed frame is destroyed on release")
	}
}

// TestCollectorReleasesEveryFrame: the collector decodes each report
// and parses each control record into scalars, so it owes every frame
// back to the pool once handled — link-lifecycle noise, membership
// records and reports alike, and the frame it refuses too. Frames read
// one after another on one goroutine then construct a single buffer.
func TestCollectorReleasesEveryFrame(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	report := func(id int) transport.Message {
		payload, err := transport.Binary.Encode(core.DeviceReport{DeviceID: id, AccuracyFinal: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Kind: transport.KindReport, From: "device", To: "collector", Payload: payload}
	}
	control := func(typ wire.ControlType, device int) transport.Message {
		payload, err := wire.EncodeControl(wire.ControlRecord{Type: typ, Node: "device", Device: device})
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Kind: transport.KindControl, From: "edge-0", To: "collector", Payload: payload}
	}
	// Systems are built before the pool is watched: building one
	// allocates enough to run the garbage collector, which empties pools.
	collector := func(msgs ...transport.Message) *core.System {
		t.Helper()
		sys, err := core.NewSystemWithNetwork(releaseConfig(), transport.NewFrameNet(t, msgs...))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	clean := collector(
		control(wire.ControlJoin, 0), control(wire.ControlMemberGone, 0), control(wire.ControlMemberBack, 0),
		report(1), control(wire.ControlLeave, 1), report(0))
	// The error returns: a duplicate report, an undecodable one, a
	// control verb the collector has no business receiving, a stray kind.
	garbled := report(0)
	garbled.Payload = garbled.Payload[:1]
	refused := map[string]*core.System{
		"duplicate report":   collector(report(1), report(1)),
		"undecodable report": collector(garbled),
		"unexpected control": collector(control(wire.ControlResyncRequest, 0)),
		"unexpected kind":    collector(transport.Message{Kind: transport.KindStats, From: "device", To: "collector", Payload: []byte("x")}),
	}

	allocs := transport.WithCountingReadPool(t)
	res, err := clean.RunRole(ctx, "collector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("collector returned %d reports, want 2", len(res.Reports))
	}
	for name, sys := range refused {
		if _, err := sys.RunRole(ctx, "collector"); err == nil {
			t.Fatalf("%s: collector accepted it", name)
		}
	}
	// (Race builds randomly discard sync.Pool puts, so the exact count
	// only holds without -race.)
	if *allocs != 1 && !transport.RaceEnabled {
		t.Fatalf("11 frames through the collector constructed %d buffers, want 1 (every path must release)", *allocs)
	}
}
