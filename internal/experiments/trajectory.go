package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"acme/internal/core"
)

// The trajectory is the repo's measured claim about the Phase 2-2 loop,
// PR by PR: what the exchange costs in bytes, what the edge waits for,
// what the detector catches, what durability costs. Each
// PR 3…10 added cells; they are one table here, run once each by
// Trajectory. A cell is data (this file); config, run and measure
// (trajectory_run.go) turn it into a core.Config, a core.Result and the
// flat metric keys of BENCH_<N>.json. cmd/benchcmp judges two such files
// by the gate table the newer one carries.

// cell is one measured configuration.
type cell struct {
	Name     string `json:"name"`
	OriginPR int    `json:"origin_pr"`

	// Fleet shape. Tiny swaps acmesim's default training stack for the
	// adversarial micro stack (tinyStack); FleetClusters is how many
	// device groups the fleet generator draws (0 = one per edge).
	Tiny           bool  `json:"tiny_stack,omitempty"`
	Edges          int   `json:"edges"`
	DevicesPerEdge int   `json:"devices_per_edge"`
	FleetClusters  int   `json:"fleet_clusters,omitempty"`
	Samples        int   `json:"samples_per_device"`
	Rounds         int   `json:"rounds"`
	Seed           int64 `json:"seed"`
	// Trials > 1 repeats the cell at seeds Seed, Seed+1, …
	Trials int `json:"trials,omitempty"`
	// DataGroups > 0 is for thousands of simulated devices: coalesced
	// class groups, each one read-only data shard its devices share,
	// keep the memory footprint at the group count instead of the
	// device count.
	DataGroups int `json:"data_groups,omitempty"`

	// Wire options.
	Quant   string `json:"quant"`
	Delta   bool   `json:"delta"`
	Entropy bool   `json:"entropy"`
	Refresh int    `json:"refresh,omitempty"`

	// Transport is "memory" (one System, every role a goroutine) or
	// "tcp" (every role its own System and loopback listener, exactly
	// as separate acmenode processes would run).
	Transport string `json:"transport"`

	// StraggleMS delays one device's upload every round it plays (the
	// first device of the largest cluster); Quorum and CutoffMS let the
	// edge combine without it.
	StraggleMS int64   `json:"straggle_ms,omitempty"`
	Quorum     float64 `json:"quorum,omitempty"`
	CutoffMS   int64   `json:"cutoff_ms,omitempty"`

	SampleFrac float64 `json:"sample_frac,omitempty"`

	// The adversarial axes: chaos link profile, Byzantine strategy ×
	// per-round lie probability (Byzantine devices are IDs 0 and 1),
	// and the edge-side detector.
	Link     string  `json:"link,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	LieProb  float64 `json:"lie_prob,omitempty"`
	Detect   bool    `json:"detect,omitempty"`

	// CkptTax runs every trial twice, checkpoints off then on.
	// KillMinRound > 0 kills the straggler's edge once its snapshot
	// reaches that round and restores it from the snapshot.
	CkptTax      bool `json:"ckpt_tax,omitempty"`
	KillMinRound int  `json:"kill_min_round,omitempty"`
}

// wireMetrics is what a single run of the pipeline moved.
type wireMetrics struct {
	// Importance bytes the edges received and personalized-set bytes
	// they sent back (wire bytes incl. header estimate).
	ImportanceBytesTotal int64 `json:"importance_bytes_total"`
	DownlinkBytesTotal   int64 `json:"downlink_bytes_total"`
	UploadBytes          int64 `json:"upload_bytes"`
	UplinkBytesPerRound  int64 `json:"uplink_bytes_per_round"`

	// KindBytesTotal is the wire volume per message kind;
	// KindBinaryBytes what the plain binary codec would have sent
	// (identical with entropy off). The ratios are binary/wire, per
	// bulk kind and over all of them: the entropy layer's own win.
	KindBytesTotal     map[string]int64   `json:"kind_bytes_total"`
	KindBinaryBytes    map[string]int64   `json:"kind_binary_bytes"`
	EntropyRatioByKind map[string]float64 `json:"entropy_ratio_by_kind,omitempty"`
	BulkEntropyRatio   float64            `json:"bulk_entropy_ratio,omitempty"`
}

// roundMetrics is a run's round trace, summed over edges per round: the
// loop's bytes and how many messages travelled delta-encoded; the
// edge's busy time (decode + fold + finalize; downlink encode + send)
// and the wall it spent gathering — the quantity a cutoff bounds — with
// its mean per edge round; the device's importance compute, critical
// path vs overlapped prefold.
type roundMetrics struct {
	ImportanceBytesByRound     []int64   `json:"importance_bytes_by_round"`
	DownlinkBytesByRound       []int64   `json:"downlink_bytes_by_round"`
	DeltaMessagesByRound       []int     `json:"delta_messages_by_round"`
	DownDeltaMsgsByRound       []int     `json:"down_delta_msgs_by_round"`
	EdgeAggregateMSByRound     []float64 `json:"edge_aggregate_ms_by_round"`
	DownlinkMSByRound          []float64 `json:"downlink_ms_by_round"`
	GatherWallMSByRound        []float64 `json:"edge_gather_wall_ms_by_round"`
	GatherWallMSPerRound       float64   `json:"edge_gather_wall_ms_per_round"`
	DeviceImportanceMSPerRound float64   `json:"device_importance_ms_per_round"`
	DevicePrefoldMSPerRound    float64   `json:"device_prefold_ms_per_round"`
	// SampledPerRound is the mean number of devices invited per round
	// across the fleet (every device with sampling off).
	SampledPerRound float64 `json:"sampled_per_round"`
	CutoffTotal     int     `json:"cutoff_total"`
	StaleTotal      int     `json:"stale_total"`
}

// detectMetrics aggregates a matrix cell's seeded trials into rates.
type detectMetrics struct {
	// DetectionTPR is the fraction of Byzantine device-trials flagged
	// at least once; DetectionFPR the fraction of honest device-trials
	// ever flagged; EvictionRate the fraction of Byzantine device-trials
	// whose strikes crossed the limit into a MEMBER-GONE eviction.
	DetectionTPR float64 `json:"detection_tpr"`
	DetectionFPR float64 `json:"detection_fpr"`
	EvictionRate float64 `json:"eviction_rate"`
	// MeanRoundsToDetect averages the first flagged round over the
	// detected Byzantine device-trials (-1 when none was detected).
	MeanRoundsToDetect float64 `json:"mean_rounds_to_detect"`
	// HonestReportRate is the fraction of honest device-trials that
	// delivered a final report — the run survives its adversaries.
	HonestReportRate float64 `json:"honest_report_rate"`
}

// restoreMetrics is a kill/restore trial: RestoreEqualTPR is 1 when the
// restored run's reports are bitwise those of the uninterrupted run.
type restoreMetrics struct {
	Victim          string  `json:"victim"`
	KillRound       int     `json:"kill_round"`
	RestoreEqualTPR float64 `json:"restore_equal_tpr"`
}

// taxMetrics is the durability tax: the median relative wall overhead
// of arming checkpoints over paired seeded trials.
type taxMetrics struct {
	PlainWallSeconds []float64 `json:"plain_wall_seconds"`
	CkptWallSeconds  []float64 `json:"ckpt_wall_seconds"`
	CkptOverheadFrac float64   `json:"ckpt_overhead_frac"`
}

// gate is how benchcmp judges one metric of a cell present in two
// trajectory files, in BENCHMARK.json's {name, unit, better, bound}
// vocabulary plus how the bound is read: "relative" fails a value worse
// than the older file's by more than bound × older, "points" one worse
// by more than bound, "ceiling" one at or past bound whatever the older
// file says. A gate on a map metric applies to each of its keys.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Kind   string  `json:"kind"`
}

// Checkpointing must stay under 5% of the plain wall no matter what the
// previous PR measured.
const ckptTaxCeiling = 0.05

// gates lists every gated metric above. Wire volumes are gated as a
// ratio. Rates in [0,1] are gated on absolute points (a TPR of 0.02
// doubling to 0.04 is noise, a TPR of 0.9 falling to 0.8 is a broken
// detector).
var gates = []gate{
	{"importance_bytes_total", "B", "lower", 0.10, "relative"},
	{"downlink_bytes_total", "B", "lower", 0.10, "relative"},
	{"kind_bytes_total", "B", "lower", 0.10, "relative"},
	{"detection_tpr", "fraction", "higher", 0.05, "points"},
	{"detection_fpr", "fraction", "lower", 0.05, "points"},
	{"restore_equal_tpr", "fraction", "higher", 0.05, "points"},
	{"ckpt_overhead_frac", "fraction", "lower", ckptTaxCeiling, "ceiling"},
}

// report is one entry of the file's configs array: the cell and
// whichever metric group its kind of run fills.
type report struct {
	cell
	*wireMetrics
	*roundMetrics
	*detectMetrics
	*restoreMetrics
	*taxMetrics
	MeanAccuracyFinal float64 `json:"mean_accuracy_final,omitempty"`
	WallSeconds       float64 `json:"wall_seconds"`
}

// trajectoryDoc is the BENCH_<N>.json document.
type trajectoryDoc struct {
	Experiment string                    `json:"experiment"`
	Gates      []gate                    `json:"gates"`
	Links      map[string]map[string]any `json:"links"`
	Detector   map[string]any            `json:"detector"`
	// Headlines are the cross-cell ratios each PR claimed.
	Headlines map[string]float64 `json:"headlines"`
	Configs   []*report          `json:"configs"`
}

// links are the swept link conditions, applied through Config.Chaos
// (delay-only knobs: duplication would break the protocol's
// exactly-once expectations). "ideal" leaves the transport untouched;
// "default" is a jittery but healthy edge link; "harsh" is congested
// with heavy tail spikes.
var links = map[string]core.ChaosOptions{
	"ideal": {},
	"default": {
		Enabled:      true,
		BaseDelay:    200 * time.Microsecond,
		Jitter:       2 * time.Millisecond,
		SpikeProb:    0.15,
		SpikeDelay:   5 * time.Millisecond,
		BandwidthBps: 16 << 20,
	},
	"harsh": {
		Enabled:      true,
		BaseDelay:    1 * time.Millisecond,
		Jitter:       5 * time.Millisecond,
		SpikeProb:    0.3,
		SpikeDelay:   20 * time.Millisecond,
		BandwidthBps: 2 << 20,
	},
}

// detector is the matrix cells' edge-side defense. Margin sits above
// the core default (0.5): with two of six devices lying, the liars
// contaminate every honest device's pooled comparison set, which
// inflates honest scores — the wider margin keeps the false-positive
// rate at the floor while the inflate and fabricate scores still clear
// it by a wide multiple. The replay screen is armed through the
// detector's default ReplayFrac.
var detector = core.DetectOptions{Enabled: true, K: 4, Margin: 1.0, StrikeLimit: 2}

// byzantineDevices is how many devices lie in a cell with a Strategy.
const byzantineDevices = 2

// cells returns the trajectory: 16 named cells and the 30-cell
// adversarial matrix.
func cells() []cell {
	// acmesim's default scenario at seed 1. Its dense-lossless and
	// delta-mixed cells are the continuity pair every PR since 3 has
	// re-run unchanged: their bytes and accuracy are pinned
	// (TestContinuityPinned), which is what licenses refactoring
	// everything under them.
	base := cell{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: 4, Seed: 1, Quant: "lossless", Transport: "memory"}
	with := func(c cell, name string, pr int, edit func(*cell)) cell {
		c.Name, c.OriginPR = name, pr
		if edit != nil {
			edit(&c)
		}
		return c
	}
	deltaMixed := with(base, "delta-mixed", 3, func(c *cell) { c.Quant, c.Delta = "mixed", true })
	// One cluster of four, so a 0.75 quorum (ceil → 3) legitimately
	// combines without the one slow device.
	straggler := with(deltaMixed, "straggler-wait", 5, func(c *cell) { c.Edges, c.DevicesPerEdge, c.StraggleMS = 1, 4, 500 })
	// Calibration fleet: full participation on a fleet small enough to
	// run every device every round. The sampled fleet is 10× that at 10%
	// participation — per-round invitations match the calibration
	// fleet's round size, so per-round traffic and wall should hold
	// roughly flat while the fleet grows 10×.
	fleet := with(base, "fleet-full-200", 6, func(c *cell) {
		c.Edges, c.DevicesPerEdge, c.Samples, c.Rounds, c.DataGroups = 8, 25, 16, 2, 8
	})
	// The kill/restore topology: the micro stack over two edges, the
	// sparse delta exchange on (the hardest state to restore — shadow
	// chains must roll forward bit-exactly), five rounds so the kill
	// lands mid-flight, one device paced so rounds are slow enough for
	// it to.
	restore := cell{Name: "restore-kill-edge", OriginPR: 9, Tiny: true, Edges: 2, DevicesPerEdge: 2, Samples: 60,
		Rounds: 5, Seed: 1, Quant: "lossless", Delta: true, Transport: "memory", StraggleMS: 50, KillMinRound: 2}

	out := []cell{
		with(base, "dense-lossless", 3, nil),
		with(base, "delta-lossless", 3, func(c *cell) { c.Delta = true }),
		with(base, "dense-mixed", 3, func(c *cell) { c.Quant = "mixed" }),
		deltaMixed,
		with(deltaMixed, "delta-mixed-incremental", 4, func(c *cell) { c.Refresh = 4 }),
		with(base, "tcp-dense-lossless", 4, func(c *cell) { c.Transport = "tcp" }),
		with(deltaMixed, "tcp-delta-mixed", 4, func(c *cell) { c.Transport = "tcp" }),
		straggler,
		with(straggler, "straggler-cutoff", 5, func(c *cell) { c.Quorum, c.CutoffMS = 0.75, 60 }),
		fleet,
		with(fleet, "fleet-sampled-2000", 6, func(c *cell) { c.DevicesPerEdge, c.SampleFrac = 250, 0.1 }),
		with(base, "dense-lossless-entropy", 7, func(c *cell) { c.Entropy = true }),
		with(deltaMixed, "delta-mixed-entropy", 7, func(c *cell) { c.Entropy = true }),
		restore,
		with(base, "ckpt-overhead", 9, func(c *cell) { c.Trials, c.CkptTax = 5, true }),
		// The restored edge must re-derive the identical picks.
		with(restore, "restore-kill-edge-sampled", 10, func(c *cell) { c.DevicesPerEdge, c.SampleFrac = 4, 0.5 }),
	}

	// The adversarial matrix: one edge over a six-device cluster
	// (detection needs ≥3 uploads per round), two Byzantine devices,
	// enough rounds for the strike limit to play out, five seeded
	// trials. The clean cells are the control: detection armed, nobody
	// lying — the pure false-positive floor.
	matrix := cell{OriginPR: 8, Tiny: true, Edges: 1, DevicesPerEdge: 6, FleetClusters: 2, Samples: 60, Rounds: 6,
		Seed: 1, Trials: 5, Quant: "lossless", Transport: "memory", Detect: true}
	linkNames := []string{"ideal", "default", "harsh"}
	for _, link := range linkNames {
		out = append(out, with(matrix, "clean-"+link, 8, func(c *cell) { c.Link = link }))
	}
	for _, strategy := range []string{"inflate", "fabricate", "replay"} {
		for _, p := range []float64{0.25, 0.5, 1.0} {
			for _, link := range linkNames {
				out = append(out, with(matrix, fmt.Sprintf("%s-p%03.0f-%s", strategy, p*100, link), 8,
					func(c *cell) { c.Strategy, c.LieProb, c.Link = strategy, p, link }))
			}
		}
	}
	return out
}

// runCell runs one cell the way its kind calls for and measures it.
func runCell(ctx context.Context, c cell) (*report, error) {
	start := time.Now()
	rep := &report{cell: c}
	var err error
	switch {
	case c.KillMinRound > 0:
		rep.restoreMetrics, rep.MeanAccuracyFinal, err = runRestore(ctx, c)
	case c.CkptTax:
		rep.taxMetrics, err = runTax(ctx, c)
	case c.Detect:
		rep.detectMetrics, rep.MeanAccuracyFinal, err = runDetection(ctx, c)
	default:
		var out outcome
		if out, err = c.run(ctx, 0, ""); err == nil {
			rep.wireMetrics, rep.roundMetrics = measure(c, out)
			rep.MeanAccuracyFinal = out.res.MeanAccuracyFinal()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// check holds the cross-cell claims every regeneration must re-earn;
// benchcmp re-enforces the ceilings on the checked-in file.
func check(r map[string]*report) error {
	// An entropy-coded run must reproduce the plain run exactly — the
	// coder is lossless — and never send more.
	for _, plain := range []string{"dense-lossless", "delta-mixed"} {
		p, e := r[plain], r[plain+"-entropy"]
		if p.MeanAccuracyFinal != e.MeanAccuracyFinal {
			return fmt.Errorf("%s accuracy %v != %s accuracy %v — entropy coding changed results",
				e.Name, e.MeanAccuracyFinal, p.Name, p.MeanAccuracyFinal)
		}
		if e.ImportanceBytesTotal > p.ImportanceBytesTotal {
			return fmt.Errorf("%s uplink %d > %s uplink %d — entropy coding lost bytes",
				e.Name, e.ImportanceBytesTotal, p.Name, p.ImportanceBytesTotal)
		}
	}
	// Inflation, and since PR 9's screen replay, must be caught on the
	// default link once a liar lies at least every other round.
	for _, c := range r {
		gated := (c.Strategy == "inflate" || c.Strategy == "replay") && c.LieProb >= 0.5 && c.Link == "default"
		if gated && (c.DetectionTPR < 0.9 || c.DetectionFPR > 0.05) {
			return fmt.Errorf("%s missed the detection gate: TPR %.2f (want ≥0.90), FPR %.2f (want ≤0.05)",
				c.Name, c.DetectionTPR, c.DetectionFPR)
		}
	}
	if tax := r["ckpt-overhead"].CkptOverheadFrac; tax >= ckptTaxCeiling {
		return fmt.Errorf("checkpoint overhead %.3f ≥ %.2f of the plain wall", tax, ckptTaxCeiling)
	}
	return nil
}

// headlines derives the ratio each PR led with from its cells.
func headlines(r map[string]*report) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dense, shaped := r["dense-lossless"], r["delta-mixed"]
	full, sampled := r["fleet-full-200"], r["fleet-sampled-2000"]
	// The sampled fleet's measured per-round figures against the linear
	// full-participation extrapolation of the calibration fleet.
	grow := float64(sampled.Edges*sampled.DevicesPerEdge) / float64(full.Edges*full.DevicesPerEdge)
	var denseBulk, shapedBulk int64
	for _, k := range bulkKinds {
		denseBulk += dense.KindBytesTotal[k.String()]
		shapedBulk += r["delta-mixed-entropy"].KindBytesTotal[k.String()]
	}
	return map[string]float64{
		"reduction_uplink_delta_mixed_vs_dense_lossless":   ratio(float64(dense.ImportanceBytesTotal), float64(shaped.ImportanceBytesTotal)),
		"reduction_downlink_delta_mixed_vs_dense_lossless": ratio(float64(dense.DownlinkBytesTotal), float64(shaped.DownlinkBytesTotal)),
		"device_compute_speedup_incremental":               ratio(dense.DeviceImportanceMSPerRound, r["delta-mixed-incremental"].DeviceImportanceMSPerRound),
		"gather_wait_reduction_cutoff_vs_wait":             ratio(r["straggler-wait"].GatherWallMSPerRound, r["straggler-cutoff"].GatherWallMSPerRound),
		"sampled_bytes_reduction_vs_full_extrapolation":    ratio(float64(full.UplinkBytesPerRound)*grow, float64(sampled.UplinkBytesPerRound)),
		"sampled_gather_reduction_vs_full_extrapolation":   ratio(full.GatherWallMSPerRound*grow, sampled.GatherWallMSPerRound),
		// Bounded by the payloads' mantissa entropy: random mantissas cap
		// an ideal order-0 coder near 1.15× on dense float64.
		"lossless_entropy_ratio": r["dense-lossless-entropy"].BulkEntropyRatio,
		// The full wire-shaping stack (mixed quantization + delta +
		// entropy) against dense lossless on the same bulk traffic.
		"quantized_entropy_vs_lossless": ratio(float64(denseBulk), float64(shapedBulk)),
	}
}

// Trajectory runs every cell once, holds the cross-cell claims, and
// writes the BENCH_<N>.json document to path ("" only renders the
// table).
func Trajectory(path string) (*Table, error) {
	ctx := context.Background()
	doc := trajectoryDoc{Experiment: "trajectory", Gates: gates, Links: make(map[string]map[string]any, len(links)),
		Detector: map[string]any{"k": detector.K, "margin": detector.Margin, "strike_limit": detector.StrikeLimit,
			"byzantine_devices": byzantineDevices}}
	for name, l := range links {
		doc.Links[name] = map[string]any{
			"base_delay_us":  l.BaseDelay.Microseconds(),
			"jitter_us":      l.Jitter.Microseconds(),
			"spike_prob":     l.SpikeProb,
			"spike_delay_us": l.SpikeDelay.Microseconds(),
			"bandwidth_bps":  l.BandwidthBps,
		}
	}
	byName := make(map[string]*report)
	for _, c := range cells() {
		rep, err := runCell(ctx, c)
		if err != nil {
			return nil, err
		}
		doc.Configs = append(doc.Configs, rep)
		byName[c.Name] = rep
	}
	if err := check(byName); err != nil {
		return nil, err
	}
	doc.Headlines = headlines(byName)

	if path != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("trajectory: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:      "trajectory",
		Title:   "Phase 2-2 loop, PR 3…10: wire bytes, edge wait, detection, durability",
		Columns: []string{"cell", "PR", "uplink B", "downlink B", "mean acc", "TPR", "FPR", "wall s"},
	}
	for _, c := range doc.Configs {
		row := []string{c.Name, fmt.Sprint(c.OriginPR), "—", "—", "—", "—", "—", f1(c.WallSeconds)}
		if c.wireMetrics != nil {
			row[2], row[3] = fmt.Sprint(c.ImportanceBytesTotal), fmt.Sprint(c.DownlinkBytesTotal)
		}
		if c.MeanAccuracyFinal > 0 {
			row[4] = f3(c.MeanAccuracyFinal)
		}
		switch {
		case c.detectMetrics != nil:
			row[5], row[6] = f2(c.DetectionTPR), f2(c.DetectionFPR)
		case c.restoreMetrics != nil:
			row[5] = f2(c.RestoreEqualTPR)
		}
		t.AddRow(row...)
	}
	names := make([]string, 0, len(doc.Headlines))
	for name := range doc.Headlines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %.3f", name, doc.Headlines[name]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ckpt_overhead_frac: %.4f (gated < %.2f)", byName["ckpt-overhead"].CkptOverheadFrac, ckptTaxCeiling))
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
