package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"acme/internal/data"
	"acme/internal/transport"
)

// tinyConfig returns a configuration small enough for fast CI runs.
func tinyConfig() Config {
	cfg := DefaultConfig()
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
	cfg.EdgeServers = 2
	cfg.Fleet.Spec.Clusters = 2
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
	cfg.Phase2Rounds = 1
	cfg.DiscardPerRound = 2
	cfg.LocalEpochs = 1
	cfg.ProbeSize = 8
	return cfg
}

// TestClassCountValidation: Config.NumClasses must be its dataset's
// class count, which every setter keeps in step with it.
func TestClassCountValidation(t *testing.T) {
	cfg := tinyConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tinyConfig: %v", err)
	}
	cfg.NumClasses = DefaultConfig().NumClasses // 100, against the dataset's 20
	if err := cfg.Validate(); err == nil {
		t.Error("100 classes over a 20-class dataset accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Reports), 4; got != want {
		t.Fatalf("got %d reports, want %d", got, want)
	}
	if len(res.Assignments) != 2 {
		t.Fatalf("got %d assignments, want 2", len(res.Assignments))
	}
	for _, rep := range res.Reports {
		if rep.Width <= 0 || rep.Width > 1 {
			t.Errorf("device %d has width %v", rep.DeviceID, rep.Width)
		}
		if rep.Depth <= 0 || rep.Depth > cfg.Backbone.Depth {
			t.Errorf("device %d has depth %d", rep.DeviceID, rep.Depth)
		}
		if rep.Energy <= 0 {
			t.Errorf("device %d has non-positive energy", rep.DeviceID)
		}
		if rep.BackboneParams <= 0 || rep.HeaderParams <= 0 {
			t.Errorf("device %d has empty model: %+v", rep.DeviceID, rep)
		}
	}
	if res.UploadBytes <= 0 {
		t.Fatal("no upload traffic recorded")
	}
	if res.CentralizedUploadBytes <= res.UploadBytes/2 {
		t.Fatalf("centralized upload (%d) should far exceed ACME upload (%d)",
			res.CentralizedUploadBytes, res.UploadBytes)
	}
	if res.SearchSpaceOurs >= res.SearchSpaceCS {
		t.Fatalf("ACME search space (%g) should be below CS (%g)", res.SearchSpaceOurs, res.SearchSpaceCS)
	}
}

// scriptedNet delivers a fixed sequence of messages to whoever asks.
type scriptedNet struct{ msgs []transport.Message }

func (n *scriptedNet) Send(transport.Message) error { return nil }

func (n *scriptedNet) Recv(ctx context.Context, _ string) (transport.Message, error) {
	if len(n.msgs) == 0 {
		<-ctx.Done()
		return transport.Message{}, ctx.Err()
	}
	msg := n.msgs[0]
	n.msgs = n.msgs[1:]
	return msg, nil
}

// TestReportsInDeviceOrder: a seeded run's Result must not depend on
// which device finished first. An edge returns its cluster's reports in
// DeviceID order, and Run merges the edges' in DeviceID order, so the
// means — float sums, which are order-sensitive in the last bit — come
// out bit-equal for every arrival order, and two seeded runs have equal
// Reports without the caller sorting them.
func TestReportsInDeviceOrder(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in float64.
	accs := []float64{0.1, 0.2, 0.3, 0.7}
	collect := func(order []int) *Result {
		t.Helper()
		net := &scriptedNet{}
		sys, err := NewSystemWithNetwork(oneCluster(4), net)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range order {
			buf, _, err := sys.encodePayload(transport.KindReport,
				DeviceReport{DeviceID: id, AccuracyFinal: accs[id], AccuracyCoarse: accs[id] / 3})
			if err != nil {
				t.Fatal(err)
			}
			net.msgs = append(net.msgs, transport.Message{Kind: transport.KindReport,
				From: fmt.Sprintf("device-%d", id), To: edgeName(0)}.WithLease(buf))
		}
		reports, err := reportPhase(ctx, sys, net)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{Reports: reports}
	}
	want := collect([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		got := collect(order)
		if !reflect.DeepEqual(got.Reports, want.Reports) {
			t.Fatalf("arrival order %v: reports %+v, want DeviceID order", order, got.Reports)
		}
		if math.Float64bits(got.MeanAccuracyFinal()) != math.Float64bits(want.MeanAccuracyFinal()) ||
			math.Float64bits(got.MeanAccuracyCoarse()) != math.Float64bits(want.MeanAccuracyCoarse()) {
			t.Fatalf("arrival order %v: means %v / %v, want %v / %v", order,
				got.MeanAccuracyFinal(), got.MeanAccuracyCoarse(), want.MeanAccuracyFinal(), want.MeanAccuracyCoarse())
		}
	}

	run := func() *Result {
		t.Helper()
		sys, err := NewSystem(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Reports, b.Reports) {
		t.Fatalf("two seeded runs differ without sorting:\n%+v\n%+v", a.Reports, b.Reports)
	}
	for i, rep := range a.Reports {
		if rep.DeviceID != i {
			t.Fatalf("report %d is device %d, want DeviceID order: %+v", i, rep.DeviceID, a.Reports)
		}
	}
}
