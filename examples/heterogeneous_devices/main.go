// Heterogeneous devices: the Phase-1 story. Three edge clusters with
// very different storage budgets receive differently sized backbones
// from the cloud's Pareto Front Grid — tight budgets get narrow/shallow
// models, loose budgets get the full reference.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"acme"
)

func main() {
	cfg := acme.DefaultConfig()
	cfg.EdgeServers = 3
	cfg.Fleet.Spec.Clusters = 3
	cfg.Fleet.Spec.DevicesPerCluster = 2
	cfg.SamplesPerDevice = 100
	// Storage ladder as fractions of the reference model's parameter
	// count: the first cluster can barely hold a third of the model.
	cfg.StorageFractions = []float64{0.35, 0.6, 1.0}
	cfg.Phase2Rounds = 1
	// Lossless entropy coding of the bulk payloads (results unchanged).
	cfg.Wire.Entropy = true

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	res, err := acme.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Phase 1 — backbones matched to cluster constraints:")
	ids := make([]int, 0, len(res.Assignments))
	for id := range res.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := res.Assignments[id]
		fmt.Printf("  edge-%d: width %.2f × depth %d → %.0f params, %.0f J, probe accuracy %.3f\n",
			id, c.W, c.D, c.Size, c.Energy, c.Accuracy)
	}

	fmt.Println("\ndevices then refined their headers locally:")
	for _, r := range res.Reports {
		fmt.Printf("  device-%d: %d total params, final accuracy %.3f\n",
			r.DeviceID, r.BackboneParams+r.HeaderParams, r.AccuracyFinal)
	}
}
