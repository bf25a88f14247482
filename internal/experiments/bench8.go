package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"acme/internal/core"
	"acme/internal/data"
)

// Bench8 sweeps the adversarial scenario engine: Byzantine strategy ×
// per-round lie probability × link profile, over N seeded trials each,
// reporting the edge-side detector's true-positive rate, false-positive
// rate, eviction rate, and mean rounds to first detection. Two
// continuity configs re-run the BENCH_7 wire scenario unchanged
// (chaos off, detection off) so `make bench-compare` keeps diffing
// wire bytes across PRs; the detection metrics are gated separately by
// benchcmp's absolute-point rules (fail when TPR drops or FPR rises by
// more than 5 points for a cell present in both files). The result is
// written as machine-readable JSON (BENCH_8.json).

// bench8Scenario pins the adversarial topology: one edge over a
// six-device cluster (detection needs ≥3 uploads per round), two
// Byzantine devices, and enough loop rounds for the strike limit to
// play out.
type bench8Scenario struct {
	Edges          int     `json:"edges"`
	Devices        int     `json:"devices"`
	Byzantine      int     `json:"byzantine_devices"`
	Rounds         int     `json:"rounds"`
	Trials         int     `json:"trials"`
	BaseSeed       int64   `json:"base_seed"`
	StrikeLimit    int     `json:"strike_limit"`
	DetectorK      float64 `json:"detector_k"`
	DetectorMargin float64 `json:"detector_margin"`
}

// bench8Cell is one trial-matrix cell: a (strategy, lie-prob, link)
// combination aggregated over the scenario's seeded trials. The
// detection metrics carry benchcmp-gated suffixes: *_tpr may not drop,
// *_fpr may not rise, by more than 5 absolute points across PRs.
type bench8Cell struct {
	Name     string  `json:"name"`
	Strategy string  `json:"strategy"`
	LieProb  float64 `json:"lie_prob"`
	Link     string  `json:"link"`

	// DetectionTPR is the fraction of Byzantine device-trials flagged
	// at least once; DetectionFPR the fraction of honest device-trials
	// ever flagged.
	DetectionTPR float64 `json:"detection_tpr"`
	DetectionFPR float64 `json:"detection_fpr"`
	// EvictionRate is the fraction of Byzantine device-trials whose
	// strike count crossed the limit into a MEMBER-GONE eviction.
	EvictionRate float64 `json:"eviction_rate"`
	// MeanRoundsToDetect averages the first flagged round over the
	// detected Byzantine device-trials (-1 when none was detected).
	MeanRoundsToDetect float64 `json:"mean_rounds_to_detect"`
	// HonestReportRate is the fraction of honest device-trials that
	// delivered a final report — the run survives its adversaries.
	HonestReportRate  float64 `json:"honest_report_rate"`
	MeanAccuracyFinal float64 `json:"mean_accuracy_final"`
	WallSeconds       float64 `json:"wall_seconds"`
}

// bench8Report is the BENCH_8.json document. Configs carries both the
// trial-matrix cells and the BENCH_7 continuity configs, so one
// benchcmp pass gates wire bytes and detection quality together.
type bench8Report struct {
	Experiment string                    `json:"experiment"`
	Scenario   bench8Scenario            `json:"scenario"`
	Links      map[string]map[string]any `json:"links"`
	Configs    []any                     `json:"configs"`
}

// bench8LinkProfiles are the swept link conditions, applied through
// Config.Chaos (delay-only knobs: duplication would break the
// protocol's exactly-once expectations). "ideal" leaves the transport
// untouched; "default" is a jittery but healthy edge link; "harsh" is
// congested with heavy tail spikes.
var bench8LinkProfiles = []struct {
	name string
	opts core.ChaosOptions
}{
	{"ideal", core.ChaosOptions{}},
	{"default", core.ChaosOptions{
		Enabled:      true,
		BaseDelay:    200 * time.Microsecond,
		Jitter:       2 * time.Millisecond,
		SpikeProb:    0.15,
		SpikeDelay:   5 * time.Millisecond,
		BandwidthBps: 16 << 20,
	}},
	{"harsh", core.ChaosOptions{
		Enabled:      true,
		BaseDelay:    1 * time.Millisecond,
		Jitter:       5 * time.Millisecond,
		SpikeProb:    0.3,
		SpikeDelay:   20 * time.Millisecond,
		BandwidthBps: 2 << 20,
	}},
}

// bench8BaseConfig is the adversarial micro topology: the tiny
// training stack over one edge and six devices, detection armed with
// its defaults.
func bench8BaseConfig(scen bench8Scenario) core.Config {
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
	cfg.EdgeServers = scen.Edges
	cfg.Fleet.Spec.Clusters = 2
	cfg.Fleet.Spec.DevicesPerCluster = scen.Devices / 2
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
	cfg.Phase2Rounds = scen.Rounds
	cfg.DiscardPerRound = 2
	cfg.LocalEpochs = 1
	cfg.ProbeSize = 8
	cfg.Fleet.Detect = core.DetectOptions{
		Enabled:     true,
		K:           scen.DetectorK,
		Margin:      scen.DetectorMargin,
		StrikeLimit: scen.StrikeLimit,
	}
	return cfg
}

// bench8Trial runs one seeded adversarial trial and feeds its
// per-device outcome into the cell accumulators.
type bench8Acc struct {
	byzTrials, byzDetected, byzEvicted int
	honTrials, honFlagged, honReported int
	roundsToDetect                     []float64
	accSum                             float64
	runs                               int
}

func (a *bench8Acc) fold(res *core.Result, byzantine int, devices int) {
	firstFlag := map[int]int{}
	evicted := map[int]bool{}
	for _, rs := range res.Phase2Rounds {
		for _, id := range rs.Suspects {
			if _, ok := firstFlag[id]; !ok {
				firstFlag[id] = rs.Round
			}
		}
		for _, id := range rs.EvictedDevices {
			evicted[id] = true
		}
	}
	reported := map[int]bool{}
	for _, rep := range res.Reports {
		reported[rep.DeviceID] = true
	}
	for id := 0; id < devices; id++ {
		if id < byzantine {
			a.byzTrials++
			if r, ok := firstFlag[id]; ok {
				a.byzDetected++
				a.roundsToDetect = append(a.roundsToDetect, float64(r))
			}
			if evicted[id] {
				a.byzEvicted++
			}
		} else {
			a.honTrials++
			if _, ok := firstFlag[id]; ok {
				a.honFlagged++
			}
			if reported[id] {
				a.honReported++
			}
		}
	}
	a.accSum += res.MeanAccuracyFinal()
	a.runs++
}

func (a *bench8Acc) cell(c *bench8Cell) {
	if a.byzTrials > 0 {
		c.DetectionTPR = float64(a.byzDetected) / float64(a.byzTrials)
		c.EvictionRate = float64(a.byzEvicted) / float64(a.byzTrials)
	}
	if a.honTrials > 0 {
		c.DetectionFPR = float64(a.honFlagged) / float64(a.honTrials)
		c.HonestReportRate = float64(a.honReported) / float64(a.honTrials)
	}
	c.MeanRoundsToDetect = -1
	if len(a.roundsToDetect) > 0 {
		var s float64
		for _, r := range a.roundsToDetect {
			s += r
		}
		c.MeanRoundsToDetect = s / float64(len(a.roundsToDetect))
	}
	if a.runs > 0 {
		c.MeanAccuracyFinal = a.accSum / float64(a.runs)
	}
}

// bench8RunCell runs one matrix cell's trials.
func bench8RunCell(scen bench8Scenario, cell *bench8Cell, link core.ChaosOptions) error {
	start := time.Now()
	var acc bench8Acc
	for trial := 0; trial < scen.Trials; trial++ {
		cfg := bench8BaseConfig(scen)
		cfg.Seed = scen.BaseSeed + int64(trial)
		cfg.Chaos = link
		if cell.Strategy != "" {
			cfg.Fleet.Byzantine = core.ByzantineOptions{
				Strategy: cell.Strategy,
				Count:    scen.Byzantine,
				Prob:     cell.LieProb,
			}
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		res, err := sys.Run(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		byz := 0
		if cell.Strategy != "" {
			byz = scen.Byzantine
		}
		acc.fold(res, byz, len(sys.Devices()))
	}
	acc.cell(cell)
	cell.WallSeconds = time.Since(start).Seconds()
	return nil
}

// Bench8JSON runs the adversarial trial matrix and writes it to path
// ("" skips the file and only renders the table).
func Bench8JSON(path string) (*Table, error) {
	// DetectorMargin sits above the core default (0.5): with two of six
	// devices lying, the liars contaminate every honest device's pooled
	// comparison set, which inflates honest scores — the wider margin
	// keeps the false-positive rate at the floor while the inflate and
	// fabricate scores still clear it by a wide multiple.
	scen := bench8Scenario{
		Edges: 1, Devices: 6, Byzantine: 2, Rounds: 6, Trials: 5,
		BaseSeed: 1, StrikeLimit: 2, DetectorK: 4, DetectorMargin: 1.0,
	}
	rep := bench8Report{
		Experiment: "bench8-adversarial",
		Scenario:   scen,
		Links:      make(map[string]map[string]any, len(bench8LinkProfiles)),
	}
	for _, lp := range bench8LinkProfiles {
		rep.Links[lp.name] = map[string]any{
			"base_delay_us":  lp.opts.BaseDelay.Microseconds(),
			"jitter_us":      lp.opts.Jitter.Microseconds(),
			"spike_prob":     lp.opts.SpikeProb,
			"spike_delay_us": lp.opts.SpikeDelay.Microseconds(),
			"bandwidth_bps":  lp.opts.BandwidthBps,
		}
	}

	strategies := []string{"inflate", "fabricate", "replay"}
	probs := []float64{0.25, 0.5, 1.0}
	var cells []*bench8Cell
	// Clean control cell per link profile: detection armed, nobody
	// lying — the pure false-positive floor.
	for _, lp := range bench8LinkProfiles {
		cells = append(cells, &bench8Cell{
			Name: "clean-" + lp.name, Strategy: "", LieProb: 0, Link: lp.name,
		})
	}
	for _, strat := range strategies {
		for _, p := range probs {
			for _, lp := range bench8LinkProfiles {
				cells = append(cells, &bench8Cell{
					Name:     fmt.Sprintf("%s-p%03.0f-%s", strat, p*100, lp.name),
					Strategy: strat, LieProb: p, Link: lp.name,
				})
			}
		}
	}
	linkByName := make(map[string]core.ChaosOptions, len(bench8LinkProfiles))
	for _, lp := range bench8LinkProfiles {
		linkByName[lp.name] = lp.opts
	}
	for _, c := range cells {
		if err := bench8RunCell(scen, c, linkByName[c.Link]); err != nil {
			return nil, fmt.Errorf("bench8 %s: %w", c.Name, err)
		}
	}

	// Acceptance gate, enforced on every regeneration: inflate at
	// lie-prob ≥ 0.5 under the default link profile must clear
	// TPR ≥ 0.9 at FPR ≤ 0.05.
	for _, c := range cells {
		if c.Strategy == "inflate" && c.LieProb >= 0.5 && c.Link == "default" {
			if c.DetectionTPR < 0.9 || c.DetectionFPR > 0.05 {
				return nil, fmt.Errorf("bench8: %s missed the detection gate: TPR %.2f (want ≥0.90), FPR %.2f (want ≤0.05)",
					c.Name, c.DetectionTPR, c.DetectionFPR)
			}
		}
	}

	// BENCH_7 continuity configs: the same scenario, chaos and
	// detection off, so bench-compare keeps diffing wire bytes 1:1 —
	// and the chaos-off pipeline is proven byte-identical across PRs.
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
			return nil, fmt.Errorf("bench8 continuity %s: %w", v.name, err)
		}
		contConfigs = append(contConfigs, &bc)
		rep.Configs = append(rep.Configs, &bc)
	}
	for _, c := range cells {
		rep.Configs = append(rep.Configs, c)
	}

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench8: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench8",
		Title: "Adversarial matrix: detection TPR/FPR by strategy × lie-prob × link",
		Columns: []string{"cell", "TPR", "FPR", "evict", "rounds→detect",
			"honest reports", "mean acc"},
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Name < cells[j].Name })
	for _, c := range cells {
		rtd := "—"
		if c.MeanRoundsToDetect >= 0 {
			rtd = fmt.Sprintf("%.1f", c.MeanRoundsToDetect)
		}
		t.AddRow(c.Name, f2(c.DetectionTPR), f2(c.DetectionFPR), f2(c.EvictionRate),
			rtd, f2(c.HonestReportRate), f3(c.MeanAccuracyFinal))
	}
	for _, bc := range contConfigs {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"continuity %s: uplink %d B, downlink %d B (must stay byte-identical to BENCH_7)",
			bc.Name, bc.ImportanceBytesTotal, bc.DownlinkBytesTotal))
	}
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
