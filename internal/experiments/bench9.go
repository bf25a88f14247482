package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"acme/internal/checkpoint"
	"acme/internal/core"
)

// Bench9 proves the crash-tolerance story end to end and keeps it
// proven on every regeneration:
//
//   - a kill/restore equivalence trial runs the seeded micro pipeline
//     twice — once uninterrupted, once with an edge killed mid-loop and
//     restored from its durable snapshot — and gates on bitwise-equal
//     device reports (restore_equal_tpr, held at 1.0 by benchcmp's
//     *_tpr rule);
//   - paired trials of the BENCH_7 continuity scenario with and without
//     checkpointing measure the durability tax (ckpt_overhead_frac,
//     gated below 5% here and by benchcmp's *_overhead_frac rule);
//   - the full BENCH_8 adversarial matrix re-runs under the same cell
//     names with the replay screen now armed by default, so benchcmp
//     diffs detection quality 1:1 — and a new acceptance gate requires
//     the replay strategy itself to be caught (TPR ≥ 0.9, FPR ≤ 0.05 at
//     lie-prob ≥ 0.5 under the default link);
//   - the BENCH_7 continuity configs ride along unchanged so wire bytes
//     keep diffing across PRs.
//
// The result is written as machine-readable JSON (BENCH_9.json).

// bench9Scenario pins the crash-tolerance trials.
type bench9Scenario struct {
	// Rounds is the Phase 2-2 loop length of the kill/restore trial —
	// enough boundaries for the kill to land mid-flight.
	Rounds int `json:"rounds"`
	// KillMinRound is the snapshot round the harness waits for before
	// killing the edge (proof the loop is mid-flight).
	KillMinRound int `json:"kill_min_round"`
	// OverheadTrials is how many paired (plain, checkpointed) runs the
	// overhead estimate medians over.
	OverheadTrials int   `json:"overhead_trials"`
	BaseSeed       int64 `json:"base_seed"`
}

// bench9RestoreCell is the kill/restore equivalence result. The
// restore_equal_tpr metric is 1.0 when the restored run's reports are
// bitwise-identical to the uninterrupted run — benchcmp's *_tpr rule
// fails the build if a later PR lets it drop.
type bench9RestoreCell struct {
	Name   string `json:"name"`
	Victim string `json:"victim"`
	// KillRound is the snapshot round the edge was killed at.
	KillRound       int     `json:"kill_round"`
	RestoreEqualTPR float64 `json:"restore_equal_tpr"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// bench9OverheadCell is the durability tax: the median relative wall
// overhead of arming checkpoints, over paired seeded trials. The
// ckpt_overhead_frac metric is gated both here (regeneration fails at
// ≥ 5%) and by benchcmp's *_overhead_frac absolute ceiling.
type bench9OverheadCell struct {
	Name             string    `json:"name"`
	Trials           int       `json:"trials"`
	PlainWallSeconds []float64 `json:"plain_wall_seconds"`
	CkptWallSeconds  []float64 `json:"ckpt_wall_seconds"`
	CkptOverheadFrac float64   `json:"ckpt_overhead_frac"`
}

// bench9Report is the BENCH_9.json document. Configs carries the
// restore and overhead cells, the BENCH_7 continuity configs, and the
// re-run BENCH_8 adversarial matrix, so one benchcmp pass gates wire
// bytes, detection quality, restore equivalence, and the durability tax
// together.
type bench9Report struct {
	Experiment  string                    `json:"experiment"`
	Scenario    bench9Scenario            `json:"scenario"`
	Adversarial bench8Scenario            `json:"adversarial_scenario"`
	Links       map[string]map[string]any `json:"links"`
	Configs     []any                     `json:"configs"`
}

// bench9MicroConfig is the kill/restore topology: the adversarial
// micro stack over two edges and four devices, detection off, the
// sparse delta exchange on (the hardest state to restore — shadow
// chains must roll forward bit-exactly), checkpoints every round.
func bench9MicroConfig(rounds int) core.Config {
	cfg := bench8BaseConfig(bench8Scenario{Edges: 2, Devices: 4, Rounds: rounds})
	cfg.Fleet.Detect = core.DetectOptions{}
	cfg.Wire.DeltaImportance = true
	return cfg
}

// bench9SlowDevice picks a device in the largest cluster to pace with
// the deterministic straggler delay, so rounds are slow enough that
// the kill reliably lands mid-loop.
func bench9SlowDevice(cfg core.Config) (deviceID, edgeID int, err error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, 0, err
	}
	best := -1
	for e, members := range sys.Clusters() {
		if len(members) >= 2 && (best < 0 || len(members) > len(sys.Clusters()[best])) {
			best = e
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("no cluster with ≥2 devices")
	}
	return sys.Devices()[sys.Clusters()[best][0]].ID, best, nil
}

func bench9SortedReports(res *core.Result) []core.DeviceReport {
	reports := append([]core.DeviceReport(nil), res.Reports...)
	sort.Slice(reports, func(i, j int) bool { return reports[i].DeviceID < reports[j].DeviceID })
	return reports
}

func bench9RunPlain(cfg core.Config) (*core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	return sys.Run(ctx)
}

// bench9AwaitEdgeSnapshot polls an edge's checkpoint file until it
// holds a snapshot at minRound or later. The file is written
// atomically, so every read observes a complete snapshot.
func bench9AwaitEdgeSnapshot(path string, minRound int) (int, error) {
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("edge snapshot never reached round %d", minRound)
		}
		var snap core.EdgeSnapshot
		if _, err := checkpoint.ReadFile(path, &snap); err == nil && snap.Round >= minRound {
			return snap.Round, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bench9RestoreTrial kills an edge mid-loop, restores it from its
// snapshot, and requires the finished run's reports to be
// bitwise-identical to the same seeded run left uninterrupted.
func bench9RestoreTrial(scen bench9Scenario) (*bench9RestoreCell, error) {
	return bench9RestoreTrialWith(scen, "restore-kill-edge", nil)
}

// bench9RestoreTrialWith is bench9RestoreTrial parameterized over the
// cell name and a config mutation (BENCH_10 reuses the trial over a
// participation-sampled fleet).
func bench9RestoreTrialWith(scen bench9Scenario, name string, mutate func(*core.Config)) (*bench9RestoreCell, error) {
	start := time.Now()
	dir, err := os.MkdirTemp("", "acme-bench9-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := bench9MicroConfig(scen.Rounds)
	cfg.Seed = scen.BaseSeed
	if mutate != nil {
		mutate(&cfg)
	}
	slowID, slowEdge, err := bench9SlowDevice(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Straggler.SlowDeviceID = slowID
	cfg.Straggler.SlowDeviceDelay = 50 * time.Millisecond
	cfg.Checkpoint = core.CheckpointOptions{Path: dir}

	baseCfg := cfg
	baseCfg.Checkpoint = core.CheckpointOptions{}
	baseRes, err := bench9RunPlain(baseCfg)
	if err != nil {
		return nil, fmt.Errorf("uninterrupted baseline: %w", err)
	}
	want := bench9SortedReports(baseRes)

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	victim := fmt.Sprintf("edge-%d", slowEdge)
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()

	var (
		wg        sync.WaitGroup
		edgeDead  sync.WaitGroup
		mu        sync.Mutex
		collected *core.Result
		failures  []error
	)
	for _, role := range sys.RoleNames() {
		role := role
		runCtx := ctx
		if role == victim {
			runCtx = victimCtx
			edgeDead.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if role == victim {
				defer edgeDead.Done()
			}
			res, err := sys.RunRole(runCtx, role)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && role != victim {
				failures = append(failures, fmt.Errorf("%s: %w", role, err))
				cancel()
				return
			}
			if res != nil {
				collected = res
			}
		}()
	}

	// Kill the edge once its snapshot proves the loop is mid-flight,
	// wait for the goroutine to die (its snapshot writer must release
	// the file before the resumed instance opens it), then restore.
	killRound, err := bench9AwaitEdgeSnapshot(sys.CheckpointFile(victim), scen.KillMinRound)
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	kill()
	edgeDead.Wait()
	if err := sys.ResumeRole(ctx, victim); err != nil {
		cancel()
		wg.Wait()
		return nil, fmt.Errorf("resume %s: %w", victim, err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(failures) > 0 {
		return nil, failures[0]
	}
	if collected == nil {
		return nil, fmt.Errorf("collector returned no result")
	}
	got := bench9SortedReports(collected)
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("kill-and-restore run diverged from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
	return &bench9RestoreCell{
		Name:            name,
		Victim:          victim,
		KillRound:       killRound,
		RestoreEqualTPR: 1,
		WallSeconds:     time.Since(start).Seconds(),
	}, nil
}

// bench9Overhead runs paired (plain, checkpointed) trials of the
// BENCH_7 continuity scenario and reports the median relative wall
// overhead of arming checkpoints, clamped at zero (the estimate is a
// tax, never a speedup — negative pair noise is measurement jitter).
func bench9Overhead(scen bench9Scenario) (*bench9OverheadCell, error) {
	cont := bench7Scenario{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: 4, Seed: scen.BaseSeed}
	cell := &bench9OverheadCell{Name: "ckpt-overhead", Trials: scen.OverheadTrials}
	var fracs []float64
	for trial := 0; trial < scen.OverheadTrials; trial++ {
		seed := cont.Seed + int64(trial)
		plain := bench7Config{Name: "plain"}
		if err := bench7Run(cont, &plain, func(cfg *core.Config) { cfg.Seed = seed }); err != nil {
			return nil, fmt.Errorf("plain trial %d: %w", trial, err)
		}
		dir, err := os.MkdirTemp("", "acme-bench9-ovh-")
		if err != nil {
			return nil, err
		}
		ckpt := bench7Config{Name: "ckpt"}
		err = bench7Run(cont, &ckpt, func(cfg *core.Config) {
			cfg.Seed = seed
			cfg.Checkpoint = core.CheckpointOptions{Path: dir}
		})
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("checkpointed trial %d: %w", trial, err)
		}
		cell.PlainWallSeconds = append(cell.PlainWallSeconds, plain.WallSeconds)
		cell.CkptWallSeconds = append(cell.CkptWallSeconds, ckpt.WallSeconds)
		fracs = append(fracs, (ckpt.WallSeconds-plain.WallSeconds)/plain.WallSeconds)
	}
	sort.Float64s(fracs)
	med := fracs[len(fracs)/2]
	if len(fracs)%2 == 0 {
		med = (fracs[len(fracs)/2-1] + fracs[len(fracs)/2]) / 2
	}
	if med < 0 {
		med = 0
	}
	cell.CkptOverheadFrac = med
	return cell, nil
}

// Bench9JSON runs the crash-tolerance trials plus the adversarial
// matrix and writes BENCH_9.json to path ("" skips the file and only
// renders the table).
func Bench9JSON(path string) (*Table, error) {
	scen := bench9Scenario{Rounds: 5, KillMinRound: 2, OverheadTrials: 5, BaseSeed: 1}
	// The adversarial matrix re-runs BENCH_8's exact scenario — the
	// replay screen is armed through the detector's default ReplayFrac,
	// so the cells diff 1:1 while the replay column finally moves.
	adv := bench8Scenario{
		Edges: 1, Devices: 6, Byzantine: 2, Rounds: 6, Trials: 5,
		BaseSeed: 1, StrikeLimit: 2, DetectorK: 4, DetectorMargin: 1.0,
	}
	rep := bench9Report{
		Experiment:  "bench9-crash-tolerance",
		Scenario:    scen,
		Adversarial: adv,
		Links:       make(map[string]map[string]any, len(bench8LinkProfiles)),
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

	restore, err := bench9RestoreTrial(scen)
	if err != nil {
		return nil, fmt.Errorf("bench9 restore: %w", err)
	}
	overhead, err := bench9Overhead(scen)
	if err != nil {
		return nil, fmt.Errorf("bench9 overhead: %w", err)
	}
	// The durability tax gate, enforced on every regeneration; benchcmp
	// re-enforces the same ceiling on the checked-in file.
	if overhead.CkptOverheadFrac >= 0.05 {
		return nil, fmt.Errorf("bench9: checkpoint overhead %.3f ≥ 0.05 of the plain wall",
			overhead.CkptOverheadFrac)
	}

	strategies := []string{"inflate", "fabricate", "replay"}
	probs := []float64{0.25, 0.5, 1.0}
	var cells []*bench8Cell
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
		if err := bench8RunCell(adv, c, linkByName[c.Link]); err != nil {
			return nil, fmt.Errorf("bench9 %s: %w", c.Name, err)
		}
	}

	// Acceptance gates, enforced on every regeneration: the BENCH_8
	// inflate gate carries forward, and the replay screen must now
	// catch the replay strategy it was built for.
	for _, c := range cells {
		gated := (c.Strategy == "inflate" || c.Strategy == "replay") &&
			c.LieProb >= 0.5 && c.Link == "default"
		if gated && (c.DetectionTPR < 0.9 || c.DetectionFPR > 0.05) {
			return nil, fmt.Errorf("bench9: %s missed the detection gate: TPR %.2f (want ≥0.90), FPR %.2f (want ≤0.05)",
				c.Name, c.DetectionTPR, c.DetectionFPR)
		}
	}

	// BENCH_7 continuity configs: chaos, detection, and checkpointing
	// all off, so bench-compare keeps diffing wire bytes 1:1.
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
			return nil, fmt.Errorf("bench9 continuity %s: %w", v.name, err)
		}
		contConfigs = append(contConfigs, &bc)
		rep.Configs = append(rep.Configs, &bc)
	}
	rep.Configs = append(rep.Configs, restore, overhead)
	for _, c := range cells {
		rep.Configs = append(rep.Configs, c)
	}

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench9: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench9",
		Title: "Crash tolerance: kill/restore equivalence, durability tax, adversarial matrix with the replay screen",
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
	t.Notes = append(t.Notes,
		fmt.Sprintf("restore: %s killed at snapshot round %d, restored, reports bitwise-identical to the uninterrupted run (restore_equal_tpr %.1f)",
			restore.Victim, restore.KillRound, restore.RestoreEqualTPR),
		fmt.Sprintf("durability tax: median checkpoint overhead ×%.4f of the plain wall over %d paired trials (gated < 0.05)",
			overhead.CkptOverheadFrac, overhead.Trials))
	for _, bc := range contConfigs {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"continuity %s: uplink %d B, downlink %d B (must stay byte-identical to BENCH_8)",
			bc.Name, bc.ImportanceBytesTotal, bc.DownlinkBytesTotal))
	}
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
