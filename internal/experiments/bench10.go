package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"acme/internal/core"
)

// Bench10 measures what the Pareto round scheduler buys over the
// uniform participation draw, and keeps the claim gated on every
// regeneration:
//
//   - a straggler/heterogeneous-latency scenario (sampled fleet, delta
//     exchange on, one device delayed far past the slowness guard) runs
//     twice — uniform draw vs Pareto scheduler — and the headline
//     metric is wire bytes per accuracy point; the pareto cell's
//     bytes_per_point_vs_uniform_ratio must land strictly under 1.0,
//     enforced here at generation and by benchcmp's *_vs_uniform_ratio
//     absolute ceiling on the checked-in file;
//   - the BENCH_9 kill/restore equivalence trial re-runs over a
//     participation-sampled fleet (the Validate gate that rejected
//     checkpoint + -sample-frac is gone), gated on bitwise-equal
//     reports;
//   - the BENCH_7 continuity configs ride along unchanged — the
//     scheduler defaults off, so their bytes must stay byte-identical
//     to BENCH_9's.
//
// The result is written as machine-readable JSON (BENCH_10.json).

// bench10Scenario pins the scheduler-vs-uniform comparison.
type bench10Scenario struct {
	Edges          int   `json:"edges"`
	DevicesPerEdge int   `json:"devices_per_edge"`
	Samples        int   `json:"samples_per_device"`
	Rounds         int   `json:"rounds"`
	Seed           int64 `json:"seed"`
	// SampleFrac is the per-round participation fraction both cells
	// subset with.
	SampleFrac float64 `json:"sample_frac"`
	// StragglerDelayMS delays one device's upload every round it plays —
	// far past the scheduler's 8×-median slowness guard, so the pareto
	// cell drops the device once observed while the uniform draw keeps
	// re-inviting it.
	StragglerDelayMS int64 `json:"straggler_delay_ms"`
}

// bench10Cell is one scheduler variant of the scenario. It embeds the
// BENCH_7 measurement (wire bytes, accuracy, wall) and adds the
// scheduling verdict: bytes spent per accuracy point, and — on the
// pareto cell — the ratio of that figure against the uniform cell,
// gated under 1.0.
type bench10Cell struct {
	bench7Config
	Scheduler     string  `json:"scheduler"`
	BytesPerPoint float64 `json:"bytes_per_point"`
	// VsUniformRatio is pareto bytes_per_point / uniform
	// bytes_per_point; only the pareto cell carries it. benchcmp fails
	// any *_vs_uniform_ratio at or above 1.0.
	VsUniformRatio float64 `json:"bytes_per_point_vs_uniform_ratio,omitempty"`
}

// bench10Report is the BENCH_10.json document.
type bench10Report struct {
	Experiment string          `json:"experiment"`
	Scenario   bench10Scenario `json:"scenario"`
	Configs    []any           `json:"configs"`
}

// bench10RunCell runs the scenario under one scheduler mode.
func bench10RunCell(scen bench10Scenario, cell *bench10Cell) error {
	b7 := bench7Scenario{
		Edges: scen.Edges, DevicesPerEdge: scen.DevicesPerEdge,
		Samples: scen.Samples, Rounds: scen.Rounds, Seed: scen.Seed,
	}
	var slowErr error
	err := bench7Run(b7, &cell.bench7Config, func(cfg *core.Config) {
		// The wire-shaped exchange (mixed quantization + delta) from the
		// BENCH_7 floor: a warm delta chain uploads at a fraction of a
		// dense re-seed, which is precisely the cost structure the
		// scheduler's warm/cold bytes objective trades against.
		cfg.Wire.Quantization = core.QuantMixed
		cfg.Wire.DeltaImportance = true
		cfg.Fleet.SampleFrac = scen.SampleFrac
		cfg.Fleet.Scheduler.Mode = cell.Scheduler
		slowID, _, err := bench9SlowDevice(*cfg)
		if err != nil {
			slowErr = err
			return
		}
		cfg.Straggler.SlowDeviceID = slowID
		cfg.Straggler.SlowDeviceDelay = time.Duration(scen.StragglerDelayMS) * time.Millisecond
	})
	if err == nil {
		err = slowErr
	}
	if err != nil {
		return err
	}
	if cell.MeanAccuracyFinal <= 0 {
		return fmt.Errorf("bench10 %s: non-positive final accuracy %v", cell.Name, cell.MeanAccuracyFinal)
	}
	cell.BytesPerPoint = float64(cell.ImportanceBytesTotal+cell.DownlinkBytesTotal) /
		(100 * cell.MeanAccuracyFinal)
	return nil
}

// Bench10JSON runs the scheduler-vs-uniform scenario, the sampled
// kill/restore trial, and the continuity configs, and writes
// BENCH_10.json to path ("" skips the file and only renders the table).
func Bench10JSON(path string) (*Table, error) {
	scen := bench10Scenario{
		Edges: 2, DevicesPerEdge: 4, Samples: 160, Rounds: 10,
		Seed: 1, SampleFrac: 0.5, StragglerDelayMS: 500,
	}
	rep := bench10Report{Experiment: "bench10-pareto-scheduler", Scenario: scen}

	uniform := &bench10Cell{Scheduler: "uniform"}
	uniform.Name = "sched-uniform"
	if err := bench10RunCell(scen, uniform); err != nil {
		return nil, fmt.Errorf("bench10 uniform: %w", err)
	}
	pareto := &bench10Cell{Scheduler: "pareto"}
	pareto.Name = "sched-pareto"
	if err := bench10RunCell(scen, pareto); err != nil {
		return nil, fmt.Errorf("bench10 pareto: %w", err)
	}
	pareto.VsUniformRatio = pareto.BytesPerPoint / uniform.BytesPerPoint
	// The headline gate, enforced on every regeneration; benchcmp
	// re-enforces the same ceiling on the checked-in file.
	if pareto.VsUniformRatio >= 1.0 {
		return nil, fmt.Errorf("bench10: pareto bytes/point %.1f not better than uniform %.1f (ratio %.3f ≥ 1.0)",
			pareto.BytesPerPoint, uniform.BytesPerPoint, pareto.VsUniformRatio)
	}

	// Kill/restore equivalence over a sampled fleet: the restored
	// edge must re-derive the identical picks and finish with reports
	// bitwise-equal to the uninterrupted run.
	restoreScen := bench9Scenario{Rounds: 5, KillMinRound: 2, BaseSeed: 1}
	restore, err := bench9RestoreTrialWith(restoreScen, "restore-kill-edge-sampled", func(cfg *core.Config) {
		cfg.Fleet.Spec.DevicesPerCluster = 4
		cfg.Fleet.SampleFrac = 0.5
	})
	if err != nil {
		return nil, fmt.Errorf("bench10 sampled restore: %w", err)
	}

	// BENCH_7 continuity configs, scheduler and sampling off: bytes
	// must stay byte-identical to BENCH_9's values.
	cont := bench7Scenario{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: 4, Seed: 1}
	contVariants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"dense-lossless", nil},
		{"delta-mixed", func(cfg *core.Config) {
			cfg.Wire.Quantization = core.QuantMixed
			cfg.Wire.DeltaImportance = true
		}},
	}
	var contConfigs []*bench7Config
	for _, v := range contVariants {
		bc := bench7Config{Name: v.name}
		if err := bench7Run(cont, &bc, v.mutate); err != nil {
			return nil, fmt.Errorf("bench10 continuity %s: %w", v.name, err)
		}
		contConfigs = append(contConfigs, &bc)
		rep.Configs = append(rep.Configs, &bc)
	}
	rep.Configs = append(rep.Configs, uniform, pareto, restore)

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench10: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench10",
		Title: "Pareto round scheduler vs uniform draw: bytes per accuracy point under a straggling, heterogeneous fleet",
		Columns: []string{"cell", "uplink B", "downlink B", "mean acc",
			"bytes/point", "vs uniform", "wall s"},
	}
	for _, c := range []*bench10Cell{uniform, pareto} {
		ratio := "—"
		if c.VsUniformRatio > 0 {
			ratio = fmt.Sprintf("%.3f", c.VsUniformRatio)
		}
		t.AddRow(c.Name, fmt.Sprintf("%d", c.ImportanceBytesTotal),
			fmt.Sprintf("%d", c.DownlinkBytesTotal), f3(c.MeanAccuracyFinal),
			fmt.Sprintf("%.1f", c.BytesPerPoint), ratio,
			fmt.Sprintf("%.1f", c.WallSeconds))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("sampled restore: %s killed at snapshot round %d over a half-sampled fleet, restored, reports bitwise-identical (restore_equal_tpr %.1f)",
			restore.Victim, restore.KillRound, restore.RestoreEqualTPR))
	for _, bc := range contConfigs {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"continuity %s: uplink %d B, downlink %d B (must stay byte-identical to BENCH_9)",
			bc.Name, bc.ImportanceBytesTotal, bc.DownlinkBytesTotal))
	}
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
