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
)

// destroyingNet hands every received message over in a private leased
// copy (when destroy is set) and releases the frame it arrived in.
// Under ScrubReleased both are overwritten in place at their final
// Release. It keeps the model package the edge sent device-0.
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
// in-memory network and once over frames overwritten in place at their
// final release, then a device's RESYNC rejoin the same two ways. Each
// receiver gets its own copy of every frame, scrubbed at that
// receiver's last release however many others still hold the frame it
// came in — the edge's one model package fanned out to every member.
// The memory transport hands the sender's leased frame on, so that
// frame too is scrubbed once its last holder lets go: a sender that
// reads what it sent after its send is caught as well. Every role
// releases its frames (Session.Receive, Gather), so one that reads
// anything aliasing a frame after its last release — a model built from
// blobs left dangling, a holder's encoding compared after its frame went
// back — ends with a different model; both pairs must end with the same
// reports and bit-equal device models.
func TestRolesSurviveReleasedFrames(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var reseed []byte
	run := func(destroy bool) ([]core.DeviceReport, [][]float64) {
		t.Helper()
		cfg := releaseConfig()
		cfg.Checkpoint.Path = t.TempDir()
		// Both devices hold one shard: the second to get its model
		// keeps that frame until it has compared encodings with the
		// first.
		cfg.Fleet.SharedShards, cfg.DataGroups = true, 1
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
			models = append(models, finalModel(t, cfg.Checkpoint.Path, r.DeviceID))
		}
		return res.Reports, models
	}
	want, wantModels := run(false)

	rejoin := func(destroy bool) []float64 {
		t.Helper()
		cfg := releaseConfig()
		cfg.Checkpoint.Path = t.TempDir()
		sys, err := core.NewSystemWithNetwork(cfg, &reseedNet{reseed: reseed, round: cfg.Phase2Rounds, destroy: destroy})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RejoinRole(ctx, "device-0"); err != nil {
			t.Fatal(err)
		}
		return finalModel(t, cfg.Checkpoint.Path, 0)
	}
	wantRejoin := rejoin(false)

	transport.ScrubReleased(t)
	got, gotModels := run(true)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reports differ once frames are destroyed on release:\n plain     %+v\n destroyed %+v", want, got)
	}
	if !reflect.DeepEqual(wantModels, gotModels) {
		t.Fatal("final models differ once frames are destroyed on release")
	}
	if !reflect.DeepEqual(wantRejoin, rejoin(true)) {
		t.Fatal("a rejoined device's model differs once its re-seed frame is destroyed on release")
	}
}
