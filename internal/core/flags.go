package core

import (
	"flag"
	"time"
)

// BindFlags declares on fs the run flags every ACME command line shares
// — fleet shape, wire shaping, straggler policy, participation
// sampling, link chaos, Byzantine injection and detection,
// checkpointing — defaulted from *cfg, and returns the function that
// writes them into *cfg once fs is parsed. The processes of a TCP
// deployment must run with identical values for all of them (the chaos
// flags excepted: link faults are per node); binding one declaration to
// one Config is what makes the same flags mean the same run everywhere.
func BindFlags(fs *flag.FlagSet, cfg *Config) (apply func() error) {
	fs.IntVar(&cfg.EdgeServers, "edges", cfg.EdgeServers, "edge servers (device clusters)")
	fs.IntVar(&cfg.Fleet.Spec.DevicesPerCluster, "devices", cfg.Fleet.Spec.DevicesPerCluster, "devices per cluster")
	fs.IntVar(&cfg.SamplesPerDevice, "samples", cfg.SamplesPerDevice, "samples per device")
	fs.IntVar(&cfg.Phase2Rounds, "rounds", cfg.Phase2Rounds, "phase 2-2 loop rounds T")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.BoolVar(&cfg.Wire.Entropy, "entropy", cfg.Wire.Entropy, "entropy-code bulk payloads: an adaptive range coder under the binary codec (lossless; receivers detect entropy frames without configuration, so decoded results are identical and mixed fleets interoperate)")
	quant := fs.String("quant", cfg.Wire.Quantization.String(), "payload quantization: lossless, float16, int8, mixed")
	fs.BoolVar(&cfg.Wire.DeltaImportance, "delta", cfg.Wire.DeltaImportance, "delta-encode successive importance payloads in both directions (round t vs t−1)")
	fs.IntVar(&cfg.ImportanceRefreshPeriod, "refresh", cfg.ImportanceRefreshPeriod, "device importance full-refresh period (≤1 = full recompute every round; >1 folds only new batches in between, overlapped with the upload)")
	fs.Float64Var(&cfg.Straggler.Quorum, "quorum", cfg.Straggler.Quorum, "straggler quorum fraction in (0,1): combine a round once this share of uploads arrived and -cutoff elapsed (0 = wait for every device)")
	fs.DurationVar(&cfg.Straggler.Deadline, "cutoff", cfg.Straggler.Deadline, "straggler deadline per aggregation round (set together with -quorum)")
	straggle := fs.Duration("straggle", 0, "artificially delay device 0's upload by this much every round (a deterministic straggler for -quorum/-cutoff demos)")
	fs.Float64Var(&cfg.Fleet.SampleFrac, "sample-frac", cfg.Fleet.SampleFrac, "per-round participation fraction in (0,1): each round every edge invites only a seeded sample of its live devices (0 = full participation)")
	fs.Int64Var(&cfg.Fleet.SampleSeed, "sample-seed", cfg.Fleet.SampleSeed, "participation sampling seed (0 = derive from -seed)")
	fs.BoolVar(&cfg.Fleet.SharedShards, "shared-shards", cfg.Fleet.SharedShards, "share one training shard per data group across its devices (memory scaling for thousands of simulated devices)")

	// The option groups are staged: each lands in cfg only when its
	// switch (-chaos, -byzantine, -detect, -ckpt-path) is set.
	var (
		chaos      ChaosOptions
		byzantine  ByzantineOptions
		detect     DetectOptions
		checkpoint CheckpointOptions
	)
	fs.BoolVar(&chaos.Enabled, "chaos", false, "wrap the transport in the seeded link-fault model (timing only — seeded results are identical with it on or off; per node over TCP, so a mixed fleet interoperates)")
	fs.Int64Var(&chaos.Seed, "chaos-seed", 0, "link-fault schedule seed (0 = derive from -seed)")
	fs.DurationVar(&chaos.BaseDelay, "chaos-base", 200*time.Microsecond, "chaos per-message base delay")
	fs.DurationVar(&chaos.Jitter, "chaos-jitter", 2*time.Millisecond, "chaos uniform jitter on top of the base delay")
	fs.Float64Var(&chaos.SpikeProb, "chaos-spike-prob", 0.1, "chaos per-message probability of a latency spike")
	fs.DurationVar(&chaos.SpikeDelay, "chaos-spike", 10*time.Millisecond, "chaos extra delay of a latency spike")
	fs.Int64Var(&chaos.BandwidthBps, "chaos-bandwidth", 0, "chaos per-link bandwidth in bytes/s for serialization delay (0 = unlimited)")
	fs.StringVar(&byzantine.Strategy, "byzantine", "", "byzantine strategy for the first -byzantine-count devices: inflate, fabricate, replay ('' = none)")
	fs.IntVar(&byzantine.Count, "byzantine-count", 1, "how many devices lie (IDs 0..count-1)")
	fs.Float64Var(&byzantine.Prob, "byzantine-prob", 1, "per-round lie probability of each byzantine device")
	fs.Float64Var(&byzantine.Factor, "byzantine-factor", 0, "corruption scale: inflate multiplier / fabricate range (0 = default 10)")
	fs.Int64Var(&byzantine.Seed, "byzantine-seed", 0, "lie-draw seed (0 = derive from -seed)")
	fs.BoolVar(&detect.Enabled, "detect", false, "arm the edge-side statistical detector: Wasserstein anomaly scoring, suspect exclusion, strike-limit eviction")
	fs.Float64Var(&detect.K, "detect-k", 0, "detector MAD multiplier in the outlier threshold (0 = default 3)")
	fs.Float64Var(&detect.Margin, "detect-margin", 0, "detector relative slack on the median score (0 = default 0.5)")
	fs.IntVar(&detect.StrikeLimit, "detect-strikes", 0, "flagged rounds before eviction (0 = default 2, negative = never evict)")
	fs.Float64Var(&detect.ReplayFrac, "detect-replay", 0, "replay screen: flag a device whose upload sits within this fraction of the cluster's median round-to-round self-drift of its own previous upload (0 = default 0.1, negative = screen off)")
	fs.StringVar(&checkpoint.Path, "ckpt-path", "", "checkpoint directory: write durable session snapshots at round boundaries")
	fs.IntVar(&checkpoint.Every, "ckpt-every", 0, "snapshot every Nth round (0 or 1 = every round)")
	fs.BoolVar(&checkpoint.Fsync, "ckpt-fsync", false, "fsync snapshots to stable storage before they count")

	return func() (err error) {
		cfg.Fleet.Spec.Clusters = cfg.EdgeServers
		if cfg.Wire.Quantization, err = ParseQuantMode(*quant); err != nil {
			return err
		}
		if *straggle > 0 {
			cfg.Straggler.SlowDeviceID = 0
			cfg.Straggler.SlowDeviceDelay = *straggle
		}
		if chaos.Enabled {
			cfg.Chaos = chaos
		}
		if byzantine.Strategy != "" {
			cfg.Fleet.Byzantine = byzantine
		}
		if detect.Enabled {
			cfg.Fleet.Detect = detect
		}
		if checkpoint.Path != "" {
			cfg.Checkpoint = checkpoint
		}
		return nil
	}
}
