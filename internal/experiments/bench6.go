package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"acme/internal/core"
)

// Bench6 measures what the fleet-membership registry and per-round
// participation sampling buy: per-round traffic and edge gather wall
// that scale with the sampled count instead of the fleet size. A small
// fleet runs at full participation to calibrate the per-device round
// cost; a 10× larger fleet runs at -sample-frac 0.1, and its measured
// per-round figures are compared against the linear full-participation
// extrapolation of the calibration run. Two continuity configs re-run
// the BENCH_5 scenario unchanged so `make bench-compare` keeps diffing
// wire bytes across PRs. The result is written as machine-readable
// JSON (BENCH_6.json) and returned as a rendered table.

// bench6Scenario pins one measured topology.
type bench6Scenario struct {
	Edges          int     `json:"edges"`
	DevicesPerEdge int     `json:"devices_per_edge"`
	Samples        int     `json:"samples_per_device"`
	Rounds         int     `json:"rounds"`
	Seed           int64   `json:"seed"`
	SampleFrac     float64 `json:"sample_frac,omitempty"`
}

// bench6Config is one measured variant.
type bench6Config struct {
	Name       string  `json:"name"`
	Transport  string  `json:"transport"`
	Quant      string  `json:"quant"`
	Delta      bool    `json:"delta"`
	Devices    int     `json:"devices"`
	SampleFrac float64 `json:"sample_frac,omitempty"`

	// Wire volumes, named like the earlier BENCH files so benchcmp
	// diffs them across PRs.
	ImportanceBytesTotal int64 `json:"importance_bytes_total"`
	DownlinkBytesTotal   int64 `json:"downlink_bytes_total"`

	// Per-round figures across the whole fleet: uplink gather volume
	// and the mean per-edge gather wall — the quantities sampling keeps
	// proportional to the sampled count.
	UplinkBytesPerRound  int64   `json:"uplink_bytes_per_round"`
	GatherWallMSPerRound float64 `json:"edge_gather_wall_ms_per_round"`
	// SampledPerRound is the mean number of devices invited per round
	// across the fleet (equals Devices with sampling off).
	SampledPerRound   float64 `json:"sampled_per_round"`
	CutoffTotal       int     `json:"cutoff_total"`
	MeanAccuracyFinal float64 `json:"mean_accuracy_final"`
	WallSeconds       float64 `json:"wall_seconds"`
}

// bench6Report is the BENCH_6.json document.
type bench6Report struct {
	Experiment string `json:"experiment"`
	// Scenario is the continuity topology (BENCH_5's); the fleet
	// configs run FleetScenario / SampledScenario.
	Scenario        bench6Scenario `json:"scenario"`
	FleetScenario   bench6Scenario `json:"fleet_scenario"`
	SampledScenario bench6Scenario `json:"sampled_scenario"`
	Configs         []bench6Config `json:"configs"`

	// The headline: the sampled fleet's measured per-round gather
	// bytes/wall against the linear full-participation extrapolation of
	// the calibration fleet (calibration per-round figure × fleet-size
	// ratio). Sampling is working when both ratios clear ~the inverse
	// sample fraction.
	ExtrapolatedFullBytesPerRound int64   `json:"extrapolated_full_uplink_bytes_per_round"`
	ExtrapolatedFullGatherMSRound float64 `json:"extrapolated_full_gather_ms_per_round"`
	SampledBytesReductionVsFull   float64 `json:"sampled_bytes_reduction_vs_full_extrapolation"`
	SampledGatherReductionVsFull  float64 `json:"sampled_gather_reduction_vs_full_extrapolation"`
}

func bench6Run(scen bench6Scenario, bc *bench6Config, mutate func(*core.Config)) error {
	cfg := core.DefaultConfig()
	cfg.EdgeServers = scen.Edges
	cfg.Fleet.Spec.Clusters = scen.Edges
	cfg.Fleet.Spec.DevicesPerCluster = scen.DevicesPerEdge
	cfg.SamplesPerDevice = scen.Samples
	cfg.Phase2Rounds = scen.Rounds
	cfg.Seed = scen.Seed
	cfg.Fleet.SampleFrac = scen.SampleFrac
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Minute)
	defer cancel()
	start := time.Now()
	res, err := sys.Run(ctx)
	cancel()
	if err != nil {
		return err
	}
	bc.WallSeconds = time.Since(start).Seconds()
	bc.MeanAccuracyFinal = res.MeanAccuracyFinal()
	bc.Devices = scen.Edges * scen.DevicesPerEdge
	var gatherMS float64
	var sampled, rounds int
	for _, rs := range res.Phase2Rounds {
		bc.ImportanceBytesTotal += rs.UploadBytes
		bc.DownlinkBytesTotal += rs.DownlinkBytes
		bc.CutoffTotal += rs.CutoffCount
		gatherMS += float64(rs.GatherWallNS) / 1e6
		if rs.SampledCount > 0 {
			sampled += rs.SampledCount
		} else {
			sampled += scen.DevicesPerEdge
		}
		rounds++
	}
	if rounds > 0 {
		bc.UplinkBytesPerRound = bc.ImportanceBytesTotal / int64(scen.Rounds)
		bc.GatherWallMSPerRound = gatherMS / float64(rounds)
		bc.SampledPerRound = float64(sampled) / float64(scen.Rounds)
	}
	return nil
}

// Bench6JSON runs the fleet-sampling trajectory and writes it to path
// ("" skips the file and only renders the table).
func Bench6JSON(path string) (*Table, error) {
	// Continuity block: BENCH_5's exact scenario, so wire bytes diff
	// 1:1 across PRs (sampling off must stay bitwise identical).
	cont := bench6Scenario{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: 4, Seed: 1}
	// Calibration fleet: full participation on a fleet small enough to
	// run every device every round.
	full := bench6Scenario{Edges: 8, DevicesPerEdge: 25, Samples: 16, Rounds: 2, Seed: 1}
	// Sampled fleet: 10× the calibration fleet at 10% participation —
	// per-round invitations match the calibration fleet's round size,
	// so per-round traffic and wall should hold roughly flat while the
	// fleet grows 10×.
	sampled := bench6Scenario{Edges: 8, DevicesPerEdge: 250, Samples: 16, Rounds: 2, Seed: 1, SampleFrac: 0.1}

	fleetMutate := func(cfg *core.Config) {
		// Thousands of simulated devices: shared read-only data shards
		// and coalesced class groups keep the memory footprint at the
		// group count instead of the device count.
		cfg.Fleet.SharedShards = true
		cfg.DataGroups = 8
	}

	rep := bench6Report{Experiment: "bench6-fleet-sampling", Scenario: cont, FleetScenario: full, SampledScenario: sampled}
	variants := []struct {
		name   string
		scen   bench6Scenario
		quant  string
		delta  bool
		mutate func(*core.Config)
	}{
		{"dense-lossless", cont, "lossless", false, nil},
		{"delta-mixed", cont, "mixed", true, func(cfg *core.Config) {
			cfg.Wire.Quantization = core.QuantMixed
			cfg.Wire.DeltaImportance = true
		}},
		{"fleet-full-200", full, "lossless", false, fleetMutate},
		{"fleet-sampled-2000", sampled, "lossless", false, fleetMutate},
	}
	for _, v := range variants {
		bc := bench6Config{Name: v.name, Transport: "memory", Quant: v.quant, Delta: v.delta, SampleFrac: v.scen.SampleFrac}
		if err := bench6Run(v.scen, &bc, v.mutate); err != nil {
			return nil, fmt.Errorf("bench6 %s: %w", v.name, err)
		}
		rep.Configs = append(rep.Configs, bc)
	}

	byName := make(map[string]*bench6Config, len(rep.Configs))
	for i := range rep.Configs {
		byName[rep.Configs[i].Name] = &rep.Configs[i]
	}
	fullBC, sampledBC := byName["fleet-full-200"], byName["fleet-sampled-2000"]
	ratio := float64(sampledBC.Devices) / float64(fullBC.Devices)
	rep.ExtrapolatedFullBytesPerRound = int64(float64(fullBC.UplinkBytesPerRound) * ratio)
	rep.ExtrapolatedFullGatherMSRound = fullBC.GatherWallMSPerRound * ratio
	if sampledBC.UplinkBytesPerRound > 0 {
		rep.SampledBytesReductionVsFull = float64(rep.ExtrapolatedFullBytesPerRound) / float64(sampledBC.UplinkBytesPerRound)
	}
	if sampledBC.GatherWallMSPerRound > 0 {
		rep.SampledGatherReductionVsFull = rep.ExtrapolatedFullGatherMSRound / sampledBC.GatherWallMSPerRound
	}

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench6: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench6",
		Title: "Fleet sampling: per-round traffic and gather wall vs fleet size",
		Columns: []string{"config", "devices", "invited/round", "uplink B/round",
			"gather ms/round", "uplink B total", "downlink B total", "mean acc"},
	}
	for _, c := range rep.Configs {
		t.AddRow(c.Name,
			fmt.Sprintf("%d", c.Devices),
			fmt.Sprintf("%.0f", c.SampledPerRound),
			fmt.Sprintf("%d", c.UplinkBytesPerRound),
			fmt.Sprintf("%.2f", c.GatherWallMSPerRound),
			fmt.Sprintf("%d", c.ImportanceBytesTotal),
			fmt.Sprintf("%d", c.DownlinkBytesTotal),
			fmt.Sprintf("%.3f", c.MeanAccuracyFinal))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("sampled 2000-device fleet vs full-participation extrapolation: uplink bytes/round %.1f× lower (%d vs %d), gather wall %.1f× lower (%.1f vs %.1f ms/round)",
			rep.SampledBytesReductionVsFull, sampledBC.UplinkBytesPerRound, rep.ExtrapolatedFullBytesPerRound,
			rep.SampledGatherReductionVsFull, sampledBC.GatherWallMSPerRound, rep.ExtrapolatedFullGatherMSRound),
		"dense-lossless / delta-mixed re-run the BENCH_5 scenario unchanged (bench-compare continuity)")
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
