package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"acme/internal/core"
)

// Bench3 traces the Phase 2-2 importance exchange on the default
// acmesim scenario (seed 1): cumulative and per-round importance
// upload bytes plus per-round edge aggregation busy time, for the
// dense lossless baseline (the PR 2 binary path) against the
// delta-encoded and mixed-precision ladders. The result is written as
// machine-readable JSON (BENCH_3.json) so successive PRs can extend
// the perf trajectory, and returned as a rendered table.

// bench3Scenario pins the measured configuration.
type bench3Scenario struct {
	Edges          int   `json:"edges"`
	DevicesPerEdge int   `json:"devices_per_edge"`
	Samples        int   `json:"samples_per_device"`
	Rounds         int   `json:"rounds"`
	Seed           int64 `json:"seed"`
}

// bench3Config is one measured variant of the exchange.
type bench3Config struct {
	Name  string `json:"name"`
	Quant string `json:"quant"`
	Delta bool   `json:"delta"`

	// ImportanceBytesByRound sums the importance upload bytes every
	// edge received in round t (wire bytes incl. header estimate).
	ImportanceBytesByRound []int64 `json:"importance_bytes_by_round"`
	ImportanceBytesTotal   int64   `json:"importance_bytes_total"`
	// DeltaMessagesByRound counts uploads that arrived delta-encoded.
	DeltaMessagesByRound []int `json:"delta_messages_by_round"`
	// EdgeAggregateMSByRound sums the edges' decode+fold+finalize busy
	// time per round, in milliseconds.
	EdgeAggregateMSByRound []float64 `json:"edge_aggregate_ms_by_round"`
	UploadBytes            int64     `json:"upload_bytes"`
	MeanAccuracyFinal      float64   `json:"mean_accuracy_final"`
}

// bench3Report is the BENCH_3.json document.
type bench3Report struct {
	Experiment string         `json:"experiment"`
	Scenario   bench3Scenario `json:"scenario"`
	Configs    []bench3Config `json:"configs"`
	// ReductionDeltaMixed is cumulative importance bytes of the dense
	// lossless baseline divided by the delta+mixed variant — the
	// headline ≥3× acceptance number.
	ReductionDeltaMixed float64 `json:"reduction_delta_mixed_vs_dense_lossless"`
}

// Bench3JSON runs the trajectory and writes it to path ("" skips the
// file and only renders the table).
func Bench3JSON(path string) (*Table, error) {
	const rounds = 4
	scen := bench3Scenario{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: rounds, Seed: 1}
	variants := []struct {
		name  string
		quant core.QuantMode
		delta bool
	}{
		{"dense-lossless", core.QuantLossless, false},
		{"delta-lossless", core.QuantLossless, true},
		{"dense-mixed", core.QuantMixed, false},
		{"delta-mixed", core.QuantMixed, true},
	}

	rep := bench3Report{Experiment: "bench3-importance-exchange", Scenario: scen}
	for _, v := range variants {
		cfg := core.DefaultConfig()
		cfg.EdgeServers = scen.Edges
		cfg.Fleet.Spec.Clusters = scen.Edges
		cfg.Fleet.Spec.DevicesPerCluster = scen.DevicesPerEdge
		cfg.SamplesPerDevice = scen.Samples
		cfg.Phase2Rounds = scen.Rounds
		cfg.Seed = scen.Seed
		cfg.Wire.Quantization = v.quant
		cfg.Wire.DeltaImportance = v.delta

		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		res, err := sys.Run(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bench3 %s: %w", v.name, err)
		}

		bc := bench3Config{
			Name:                   v.name,
			Quant:                  v.quant.String(),
			Delta:                  v.delta,
			ImportanceBytesByRound: make([]int64, rounds),
			DeltaMessagesByRound:   make([]int, rounds),
			EdgeAggregateMSByRound: make([]float64, rounds),
			MeanAccuracyFinal:      res.MeanAccuracyFinal(),
			UploadBytes:            res.UploadBytes,
		}
		for _, rs := range res.Phase2Rounds {
			if rs.Round < 0 || rs.Round >= rounds {
				continue
			}
			bc.ImportanceBytesByRound[rs.Round] += rs.UploadBytes
			bc.DeltaMessagesByRound[rs.Round] += rs.DeltaMessages
			bc.EdgeAggregateMSByRound[rs.Round] += float64(rs.AggregateNS) / 1e6
			bc.ImportanceBytesTotal += rs.UploadBytes
		}
		rep.Configs = append(rep.Configs, bc)
	}

	base := rep.Configs[0].ImportanceBytesTotal
	best := rep.Configs[len(rep.Configs)-1].ImportanceBytesTotal
	if best > 0 {
		rep.ReductionDeltaMixed = float64(base) / float64(best)
	}

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench3: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench3",
		Title: "Phase 2-2 importance exchange: bytes and edge latency by round",
		Columns: []string{"config", "importance B (total)", "by round", "delta msgs", "agg ms by round",
			"mean acc"},
	}
	for _, c := range rep.Configs {
		t.AddRow(c.Name,
			fmt.Sprintf("%d", c.ImportanceBytesTotal),
			fmt.Sprintf("%v", c.ImportanceBytesByRound),
			fmt.Sprintf("%v", c.DeltaMessagesByRound),
			fmt.Sprintf("%.2v", c.EdgeAggregateMSByRound),
			fmt.Sprintf("%.3f", c.MeanAccuracyFinal))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("delta+mixed cuts cumulative importance upload %.2f× vs dense lossless", rep.ReductionDeltaMixed))
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
