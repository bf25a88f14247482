package core

import "flag"

// BindFlags declares on fs the run flags every ACME command line shares
// — fleet shape, wire shaping, straggler policy, participation
// sampling, link chaos, Byzantine injection and detection,
// checkpointing — defaulted from *cfg, and returns the function that
// writes them into *cfg once fs is parsed. The processes of a TCP
// deployment must run with identical values for all of them (-chaos
// excepted: link faults are per node); binding one declaration to one
// Config is what makes the same flags mean the same run everywhere.
// Every flag has a line in KNOBS.txt naming the run that sets what it
// writes, or why it stays without one.
func BindFlags(fs *flag.FlagSet, cfg *Config) (apply func() error) {
	fs.IntVar(&cfg.EdgeServers, "edges", cfg.EdgeServers, "edge servers (device clusters)")
	fs.IntVar(&cfg.Fleet.Spec.DevicesPerCluster, "devices", cfg.Fleet.Spec.DevicesPerCluster, "devices per cluster")
	fs.IntVar(&cfg.SamplesPerDevice, "samples", cfg.SamplesPerDevice, "samples per device")
	fs.IntVar(&cfg.Phase2Rounds, "rounds", cfg.Phase2Rounds, "phase 2-2 loop rounds T")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.BoolVar(&cfg.Wire.Entropy, "entropy", cfg.Wire.Entropy, "entropy-code bulk payloads: an adaptive range coder under the binary codec (lossless; receivers detect entropy frames without configuration, so decoded results are identical and mixed fleets interoperate)")
	quant := fs.String("quant", cfg.Wire.Quantization.String(), "payload quantization: lossless, float16, int8, mixed (quantized importance sets always travel as delta records)")
	fs.BoolVar(&cfg.Wire.DeltaImportance, "delta", cfg.Wire.DeltaImportance, "delta-encode successive lossless importance payloads in both directions (round t vs t−1; implied by a quantized -quant)")
	fs.IntVar(&cfg.ImportanceRefreshPeriod, "refresh", cfg.ImportanceRefreshPeriod, "device importance full-refresh period (≤1 = full recompute every round; >1 folds only new batches in between, overlapped with the upload)")
	fs.Float64Var(&cfg.Straggler.Quorum, "quorum", cfg.Straggler.Quorum, "straggler quorum fraction in (0,1): combine a round once this share of uploads arrived and -cutoff elapsed (0 = wait for every device)")
	fs.DurationVar(&cfg.Straggler.Deadline, "cutoff", cfg.Straggler.Deadline, "straggler deadline per aggregation round (set together with -quorum)")
	straggle := fs.Duration("straggle", 0, "artificially delay device 0's upload by this much every round (a deterministic straggler for -quorum/-cutoff demos)")
	fs.Float64Var(&cfg.Fleet.SampleFrac, "sample-frac", cfg.Fleet.SampleFrac, "per-round participation fraction in (0,1): each round every edge invites only a seeded sample of its live devices (0 = full participation)")
	fs.BoolVar(&cfg.Fleet.SharedShards, "shared-shards", cfg.Fleet.SharedShards, "share one training shard per data group across its devices (memory scaling for thousands of simulated devices)")

	// The option groups are staged: each lands in cfg only when its
	// switch (-chaos, -byzantine, -detect, -ckpt-path) is set.
	var (
		byzantine  ByzantineOptions
		detect     DetectOptions
		checkpoint CheckpointOptions
	)
	chaos := fs.Bool("chaos", false, "wrap the transport in the seeded link-fault model on the \"default\" link: 200µs base delay, 2ms jitter, 15% spikes of 5ms, 16 MiB/s (timing only — seeded results are identical with it on or off; per node over TCP, so a mixed fleet interoperates)")
	fs.StringVar(&byzantine.Strategy, "byzantine", "", "byzantine strategy for the first -byzantine-count devices: inflate, fabricate, replay ('' = none)")
	fs.IntVar(&byzantine.Count, "byzantine-count", 1, "how many devices lie (IDs 0..count-1)")
	fs.Float64Var(&byzantine.Prob, "byzantine-prob", 1, "per-round lie probability of each byzantine device")
	fs.BoolVar(&detect.Enabled, "detect", false, "arm the edge-side statistical detector: Wasserstein anomaly scoring, suspect exclusion, strike-limit eviction")
	fs.StringVar(&checkpoint.Path, "ckpt-path", "", "checkpoint directory: write durable session snapshots at every round boundary and every device's final model")
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
		if *chaos {
			cfg.Chaos = ChaosLinks["default"]
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
