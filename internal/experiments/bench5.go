package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"acme/internal/core"
)

// Bench5 measures what the session-oriented transport buys: the
// straggler cutoff. One device is artificially slowed every round; the
// baseline edge paces the whole cluster at it, while the quorum+
// deadline variant combines without it and pays only the deadline.
// Two continuity configs re-run the BENCH_4 scenario unchanged so
// `make bench-compare` keeps diffing wire bytes across PRs. The result
// is written as machine-readable JSON (BENCH_5.json) and returned as a
// rendered table.

// bench5Scenario pins one measured topology.
type bench5Scenario struct {
	Edges          int   `json:"edges"`
	DevicesPerEdge int   `json:"devices_per_edge"`
	Samples        int   `json:"samples_per_device"`
	Rounds         int   `json:"rounds"`
	Seed           int64 `json:"seed"`
}

// bench5Config is one measured variant.
type bench5Config struct {
	Name      string  `json:"name"`
	Transport string  `json:"transport"`
	Quant     string  `json:"quant"`
	Delta     bool    `json:"delta"`
	Quorum    float64 `json:"quorum,omitempty"`
	CutoffMS  float64 `json:"cutoff_ms,omitempty"`
	// StraggleMS is the artificial per-round delay injected into one
	// device's upload (0 = no straggler).
	StraggleMS float64 `json:"straggle_ms,omitempty"`

	// Wire volumes, named like the earlier BENCH files so benchcmp
	// diffs them across PRs.
	ImportanceBytesTotal int64 `json:"importance_bytes_total"`
	DownlinkBytesTotal   int64 `json:"downlink_bytes_total"`

	// Edge wait: wall-clock time per round spent gathering uploads —
	// the quantity the cutoff bounds.
	GatherWallMSByRound  []float64 `json:"edge_gather_wall_ms_by_round,omitempty"`
	GatherWallMSPerRound float64   `json:"edge_gather_wall_ms_per_round"`
	CutoffTotal          int       `json:"cutoff_total"`
	StaleTotal           int       `json:"stale_total"`
	MeanAccuracyFinal    float64   `json:"mean_accuracy_final"`
	WallSeconds          float64   `json:"wall_seconds"`
}

// bench5Report is the BENCH_5.json document.
type bench5Report struct {
	Experiment string `json:"experiment"`
	// Scenario is the continuity topology (BENCH_4's); the straggler
	// configs run StragglerScenario.
	Scenario          bench5Scenario `json:"scenario"`
	StragglerScenario bench5Scenario `json:"straggler_scenario"`
	Configs           []bench5Config `json:"configs"`
	// GatherWaitReductionCutoff is the straggler baseline's mean
	// per-round edge gather wait divided by the cutoff variant's — the
	// headline: how much edge wall-clock the quorum+deadline recovers
	// from a slow device.
	GatherWaitReductionCutoff float64 `json:"gather_wait_reduction_cutoff_vs_wait"`
}

func bench5Run(scen bench5Scenario, bc *bench5Config, mutate func(*core.Config)) error {
	cfg := core.DefaultConfig()
	cfg.EdgeServers = scen.Edges
	cfg.Fleet.Spec.Clusters = scen.Edges
	cfg.Fleet.Spec.DevicesPerCluster = scen.DevicesPerEdge
	cfg.SamplesPerDevice = scen.Samples
	cfg.Phase2Rounds = scen.Rounds
	cfg.Seed = scen.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	res, err := sys.Run(ctx)
	cancel()
	if err != nil {
		return err
	}
	bc.WallSeconds = time.Since(start).Seconds()
	bc.MeanAccuracyFinal = res.MeanAccuracyFinal()
	bc.GatherWallMSByRound = make([]float64, scen.Rounds)
	rounds := 0
	for _, rs := range res.Phase2Rounds {
		if rs.Round >= 0 && rs.Round < scen.Rounds {
			bc.GatherWallMSByRound[rs.Round] += float64(rs.GatherWallNS) / 1e6
		}
		bc.ImportanceBytesTotal += rs.UploadBytes
		bc.DownlinkBytesTotal += rs.DownlinkBytes
		bc.CutoffTotal += rs.CutoffCount
		bc.StaleTotal += rs.StaleMessages
		rounds++
	}
	if rounds > 0 {
		var total float64
		for _, ms := range bc.GatherWallMSByRound {
			total += ms
		}
		bc.GatherWallMSPerRound = total / float64(rounds)
	}
	return nil
}

// Bench5JSON runs the straggler-cutoff trajectory and writes it to
// path ("" skips the file and only renders the table).
func Bench5JSON(path string) (*Table, error) {
	const rounds = 4
	// Continuity block: BENCH_4's exact scenario, so wire bytes diff
	// 1:1 across PRs.
	cont := bench5Scenario{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: rounds, Seed: 1}
	// Straggler block: one cluster of four, so a 0.75 quorum (ceil → 3)
	// legitimately combines without the one slow device.
	strag := bench5Scenario{Edges: 1, DevicesPerEdge: 4, Samples: 160, Rounds: rounds, Seed: 1}
	const (
		straggleDelay  = 500 * time.Millisecond
		cutoffDeadline = 60 * time.Millisecond
		quorum         = 0.75
	)

	// The artificial straggler must name a real device of the fleet.
	probeCfg := core.DefaultConfig()
	probeCfg.EdgeServers = strag.Edges
	probeCfg.Fleet.Spec.Clusters = strag.Edges
	probeCfg.Fleet.Spec.DevicesPerCluster = strag.DevicesPerEdge
	probeCfg.SamplesPerDevice = strag.Samples
	probeCfg.Seed = strag.Seed
	probe, err := core.NewSystem(probeCfg)
	if err != nil {
		return nil, err
	}
	slowID := probe.Devices()[probe.Clusters()[0][0]].ID

	rep := bench5Report{Experiment: "bench5-straggler-cutoff", Scenario: cont, StragglerScenario: strag}
	variants := []struct {
		name   string
		scen   bench5Scenario
		mutate func(*core.Config)
	}{
		{"dense-lossless", cont, nil},
		{"delta-mixed", cont, func(cfg *core.Config) {
			cfg.Wire.Quantization = core.QuantMixed
			cfg.Wire.DeltaImportance = true
		}},
		{"straggler-wait", strag, func(cfg *core.Config) {
			cfg.Wire.Quantization = core.QuantMixed
			cfg.Wire.DeltaImportance = true
			cfg.Straggler.SlowDeviceID = slowID
			cfg.Straggler.SlowDeviceDelay = straggleDelay
		}},
		{"straggler-cutoff", strag, func(cfg *core.Config) {
			cfg.Wire.Quantization = core.QuantMixed
			cfg.Wire.DeltaImportance = true
			cfg.Straggler.SlowDeviceID = slowID
			cfg.Straggler.SlowDeviceDelay = straggleDelay
			cfg.Straggler.Quorum = quorum
			cfg.Straggler.Deadline = cutoffDeadline
		}},
	}
	for _, v := range variants {
		bc := bench5Config{Name: v.name, Transport: "memory", Quant: "lossless"}
		// Every variant but the dense-lossless baseline rides the
		// delta+mixed exchange.
		if v.mutate != nil {
			bc.Quant = "mixed"
			bc.Delta = true
		}
		switch v.name {
		case "straggler-wait":
			bc.StraggleMS = float64(straggleDelay.Milliseconds())
		case "straggler-cutoff":
			bc.StraggleMS = float64(straggleDelay.Milliseconds())
			bc.Quorum = quorum
			bc.CutoffMS = float64(cutoffDeadline.Milliseconds())
		}
		if err := bench5Run(v.scen, &bc, v.mutate); err != nil {
			return nil, fmt.Errorf("bench5 %s: %w", v.name, err)
		}
		rep.Configs = append(rep.Configs, bc)
	}

	byName := make(map[string]*bench5Config, len(rep.Configs))
	for i := range rep.Configs {
		byName[rep.Configs[i].Name] = &rep.Configs[i]
	}
	wait, cut := byName["straggler-wait"], byName["straggler-cutoff"]
	if cut.GatherWallMSPerRound > 0 {
		rep.GatherWaitReductionCutoff = wait.GatherWallMSPerRound / cut.GatherWallMSPerRound
	}

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench5: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench5",
		Title: "Session transport: edge gather wait with a straggler, cutoff vs wait-for-all",
		Columns: []string{"config", "gather ms/round", "cutoffs", "stale drops",
			"uplink B", "downlink B", "mean acc"},
	}
	for _, c := range rep.Configs {
		t.AddRow(c.Name,
			fmt.Sprintf("%.2f", c.GatherWallMSPerRound),
			fmt.Sprintf("%d", c.CutoffTotal),
			fmt.Sprintf("%d", c.StaleTotal),
			fmt.Sprintf("%d", c.ImportanceBytesTotal),
			fmt.Sprintf("%d", c.DownlinkBytesTotal),
			fmt.Sprintf("%.3f", c.MeanAccuracyFinal))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("quorum %.2f + %v cutoff reduces the straggled edge's gather wait %.1f× (%.1f → %.1f ms/round)",
			quorum, cutoffDeadline, rep.GatherWaitReductionCutoff,
			wait.GatherWallMSPerRound, cut.GatherWallMSPerRound),
		"dense-lossless / delta-mixed re-run the BENCH_4 scenario unchanged (bench-compare continuity)")
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
