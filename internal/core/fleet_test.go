package core

import (
	"context"
	"testing"
	"time"

	"acme/internal/data"
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
	cfg.Checkpoint.Path = t.TempDir()
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
	if err := sys.CheckSavedModels(res.Reports); err != nil {
		t.Fatal(err)
	}
}
