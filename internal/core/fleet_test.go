package core

import (
	"context"
	"testing"
	"time"

	"acme/internal/data"
	"acme/internal/nn"
)

// TestPaperFleetSetting runs the paper's §IV-A topology — 10 device
// clusters × 5 devices with the 200–400 MB-equivalent storage ladder —
// end to end at micro model scale.
func TestPaperFleetSetting(t *testing.T) {
	if testing.Short() {
		t.Skip("50-device fleet")
	}
	cfg := tinyConfig()
	cfg.EdgeServers = 10
	cfg.Fleet.Spec.Clusters = 10
	cfg.Fleet.Spec.DevicesPerCluster = 5
	cfg.StorageFractions = []float64{0.45, 0.55, 0.7, 0.85, 1.0}
	cfg.SamplesPerDevice = 40
	cfg.DataGroups = 10

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 50 {
		t.Fatalf("got %d reports, want 50", len(res.Reports))
	}
	if len(res.Assignments) != 10 {
		t.Fatalf("got %d assignments, want 10", len(res.Assignments))
	}
	// Every cluster's backbone must respect its binding storage
	// constraint.
	for e, members := range sys.Clusters() {
		cand, ok := res.Assignments[e]
		if !ok {
			t.Fatalf("edge %d missing assignment", e)
		}
		minStorage := 1e18
		for _, di := range members {
			if s := sys.Devices()[di].Storage; s < minStorage {
				minStorage = s
			}
		}
		if cand.Size >= minStorage {
			t.Errorf("edge %d: backbone ζ=%.0f ≥ min storage %.0f", e, cand.Size, minStorage)
		}
	}
	// Heterogeneous constraints should produce more than one distinct
	// backbone shape across the fleet.
	shapes := map[[2]interface{}]bool{}
	for _, c := range res.Assignments {
		shapes[[2]interface{}{c.W, c.D}] = true
	}
	if len(shapes) < 2 {
		t.Errorf("all 10 clusters received the same backbone shape; expected heterogeneity")
	}
}

// TestCarsLikeDataset runs the pipeline on the Stanford-Cars-like spec.
func TestCarsLikeDataset(t *testing.T) {
	cfg := tinyConfig()
	spec := data.CarsLike()
	spec.NumClasses = 28 // shrink for speed, keep the harder geometry
	spec.NumSuper = 4
	cfg.Dataset = spec
	cfg.NumClasses = spec.NumClasses
	cfg.ClassesPerDevice = 8

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("no reports")
	}
}

// TestDeviceCheckpoints verifies devices persist loadable final models.
func TestDeviceCheckpoints(t *testing.T) {
	cfg := tinyConfig()
	cfg.CheckpointDir = t.TempDir()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkSavedModels(t, sys, cfg.CheckpointDir, res.Reports)
}

// checkSavedModels loads each reporting device's saved final model and
// re-evaluates it on the device's raw test samples through
// HeaderModel.Forward, the reference path. The device computed its
// reported accuracy over backbone features it built once (at start, or
// at resume from a snapshot), so exact equality shows those features
// are the ones its final model's backbone produces.
func checkSavedModels(t *testing.T, sys *System, dir string, reports []DeviceReport) {
	t.Helper()
	for _, rep := range reports {
		backbone, header, err := LoadDeviceCheckpoint(dir, rep.DeviceID)
		if err != nil {
			t.Fatalf("device %d: %v", rep.DeviceID, err)
		}
		if backbone.ActiveParamCount() != rep.BackboneParams {
			t.Fatalf("device %d: checkpoint backbone %d params, report %d",
				rep.DeviceID, backbone.ActiveParamCount(), rep.BackboneParams)
		}
		var di int
		for i, d := range sys.Devices() {
			if d.ID == rep.DeviceID {
				di = i
			}
		}
		test := sys.DeviceTest(di)
		acc, err := nn.Evaluate(header, test.X, test.Y)
		if err != nil {
			t.Fatal(err)
		}
		if acc != rep.AccuracyFinal {
			t.Fatalf("device %d: restored accuracy %.3f vs reported %.3f",
				rep.DeviceID, acc, rep.AccuracyFinal)
		}
	}
}
