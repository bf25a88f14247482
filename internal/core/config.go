// Package core orchestrates ACME's bidirectional single-loop distributed
// system: the cloud server (Phase 1 backbone customization), the edge
// servers (Phase 2-1 header search and Phase 2-2 aggregation), and the
// devices (local refinement and importance-set generation), all
// communicating through internal/transport so that traffic volumes are
// measured rather than assumed.
package core

import (
	"fmt"
	"time"

	"acme/internal/chaos"
	"acme/internal/cluster"
	"acme/internal/data"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
)

// WireOptions groups the knobs that shape protocol payloads on the
// wire: entropy coding, quantization, and the two sparsification
// schemes. Payloads always travel in the compact binary codec
// (internal/wire) — what Table I's traffic numbers measure. They
// change measured traffic, never seeded results (lossless settings are
// bitwise-identical across all of them).
type WireOptions struct {
	// Entropy layers an adaptive order-0 range coder under the binary
	// codec for the bulk payload kinds (raw shards, provisioned data,
	// header/backbone packages, importance sets and deltas). It is
	// lossless and per-message never-lose: a message whose entropy
	// frame would not be strictly smaller than its plain binary frame
	// travels plain. Receivers need no configuration — the wire layer
	// detects and expands entropy frames transparently — so decoded
	// results are bitwise identical with the flag on or off.
	Entropy bool
	// Quantization selects the precision of parameter and importance
	// payloads. Lossless (default) ships exact parameters and float32
	// importance; QuantFloat16/QuantInt8 deterministically compress
	// model traffic 4×/8× at bounded precision cost, and QuantMixed
	// picks float16 or int8 per layer from the measured quantization
	// error of the payload itself.
	Quantization QuantMode
	// DeltaImportance makes the Phase 2-2 exchange symmetric and
	// sparse: devices upload round-t importance sets as deltas against
	// round t−1 (KindImportanceDelta), and the edge sends each device's
	// personalized set as a delta against its previous downlink
	// (KindImportanceDownDelta). Both directions carry a per-layer
	// changed-index bitmask plus the packed values at changed positions,
	// with a dense per-layer fallback when the delta would not be
	// smaller. Reconstruction is bitwise-exact, so seeded Results are
	// identical with the flag on or off; only the measured traffic
	// changes. The uplink half is ignored when TopKFraction
	// sparsification is active (the legacy top-k payload already is a
	// sparse form); the downlink half applies regardless.
	DeltaImportance bool
	// TopKFraction sparsifies device importance uploads to the top
	// fraction of entries by magnitude (0 or ≥1 sends dense sets). Low-
	// importance entries only matter near the discard threshold, so
	// moderate sparsification trades negligible fidelity for uplink
	// bandwidth.
	TopKFraction float64
}

// Validate reports wire-option errors.
func (w WireOptions) Validate() error {
	if !w.Quantization.Valid() {
		return fmt.Errorf("core: unknown quantization mode %d", int(w.Quantization))
	}
	return nil
}

// StragglerPolicy groups the round-scoped straggler cutoff and the
// deterministic slow-device injection used to exercise it.
type StragglerPolicy struct {
	// Quorum and Deadline enable the round-scoped straggler cutoff:
	// once a ceil(Quorum × cluster size) fraction of a round's
	// importance uploads has arrived and Deadline has elapsed since the
	// edge started gathering, the edge combines without the stragglers
	// (similarity weights renormalized over the present devices),
	// invalidates the cut devices' delta shadows, and sends each one a
	// ROUND-CUTOFF control record instead of a personalized set — so
	// the loop stops pacing at the slowest device. Both zero (the
	// default) waits for every device, which keeps seeded Results
	// bitwise identical to the pre-session protocol. Quorum is a
	// fraction in (0,1); the two must be set together.
	Quorum   float64
	Deadline time.Duration
	// SlowDeviceDelay artificially delays one device's importance
	// upload by this much every round (the device whose ID is
	// SlowDeviceID) — a deterministic straggler for benchmarks and
	// cutoff tests. 0 disables the injection.
	SlowDeviceID    int
	SlowDeviceDelay time.Duration
}

// Enabled reports whether the cutoff is configured (quorum fraction in
// (0,1) plus a positive deadline).
func (p StragglerPolicy) Enabled() bool {
	return p.Quorum > 0 && p.Quorum < 1 && p.Deadline > 0
}

// Validate reports straggler-policy errors.
func (p StragglerPolicy) Validate() error {
	switch {
	case p.Quorum != 0 && (p.Quorum < 0 || p.Quorum >= 1):
		return fmt.Errorf("core: straggler quorum %v outside (0,1)", p.Quorum)
	case p.Deadline < 0:
		return fmt.Errorf("core: negative straggler deadline %v", p.Deadline)
	case (p.Quorum > 0) != (p.Deadline > 0):
		return fmt.Errorf("core: straggler quorum and deadline must be set together (-quorum %v, -cutoff %v)",
			p.Quorum, p.Deadline)
	case p.SlowDeviceDelay < 0:
		return fmt.Errorf("core: negative slow-device delay %v", p.SlowDeviceDelay)
	}
	return nil
}

// ByzantineOptions injects adversarial devices into the fleet: the
// first Count device IDs corrupt their importance uploads per
// internal/chaos's Liar, with per-round lie probability Prob. Seeded
// and deterministic, so the trial matrix's TPR/FPR numbers are
// reproducible across runs and transports.
type ByzantineOptions struct {
	// Strategy is the corruption mode: "inflate", "fabricate",
	// "replay", or "" (no Byzantine devices).
	Strategy string
	// Count is how many devices lie: those with ID < Count.
	Count int
	// Prob is each Byzantine device's per-round lie probability.
	Prob float64
	// Factor scales the corruption (0 = the chaos default of 10).
	Factor float64
	// Seed drives the per-(device, round) lie draws (0 = the run seed).
	Seed int64
}

// Enabled reports whether any device is configured to lie.
func (b ByzantineOptions) Enabled() bool {
	return b.Strategy != "" && b.Count > 0 && b.Prob > 0
}

// Validate reports Byzantine-option errors.
func (b ByzantineOptions) Validate() error {
	if _, err := chaos.ParseStrategy(b.Strategy); err != nil {
		return err
	}
	switch {
	case b.Count < 0:
		return fmt.Errorf("core: negative byzantine device count %d", b.Count)
	case b.Prob < 0 || b.Prob > 1:
		return fmt.Errorf("core: byzantine lie probability %v outside [0,1]", b.Prob)
	case b.Factor < 0:
		return fmt.Errorf("core: negative byzantine factor %v", b.Factor)
	}
	return nil
}

// DetectOptions enables edge-side statistical detection of Byzantine
// uploads: each round the edge scores every device's upload by its
// Wasserstein distance to the pooled uploads of the rest of the
// cluster, excludes outliers from the similarity-weighted combine
// (ResultPartial renormalizes over the devices that remain), and
// evicts repeat offenders through the fleet registry (MEMBER-GONE).
type DetectOptions struct {
	Enabled bool
	// K is the MAD multiplier in the outlier threshold (0 = chaos
	// default of 3).
	K float64
	// Margin is the relative slack on the score median (0 = default 0.5).
	Margin float64
	// StrikeLimit is how many flagged rounds evict a device (0 =
	// default 2; negative disables eviction).
	StrikeLimit int
	// MaxValues bounds the per-upload sample the score runs on (0 =
	// default 512).
	MaxValues int
	// ReplayFrac is the replay screen's cut on the cross-round
	// self-distance as a fraction of the cluster's median self-drift
	// (0 = chaos default of 0.1; negative disables the screen).
	ReplayFrac float64
}

// FleetOptions groups the fleet topology and the per-round
// participation sampling that makes large fleets affordable: each
// Phase 2-2 round invites only a sampled subset of the live membership,
// so per-round traffic and wall time scale with the sampled count
// rather than the fleet size.
type FleetOptions struct {
	// Spec is the fleet topology (clusters × devices per cluster).
	Spec cluster.FleetSpec
	// SampleFrac is the per-round participation fraction in (0,1): each
	// round the edge samples ceil(SampleFrac × live members) devices
	// from its membership registry and invites only those. 0 (default)
	// and ≥1 disable sampling — every live device participates every
	// round, bitwise identical to the pre-sampling protocol.
	SampleFrac float64
	// SampleSeed seeds the deterministic participation draw (0 = derive
	// from the run seed). Same seed, same membership, same subsets — on
	// any transport.
	SampleSeed int64
	// SharedShards scales simulation memory to thousands of devices: the
	// fleet draws one training shard per data group instead of one per
	// device, and devices alias their group's shard read-only. Device
	// data is no longer per-device unique within a group, so it is a
	// simulation-scaling knob, not a protocol change.
	SharedShards bool
	// Byzantine injects lying devices; Detect is the edge-side defense.
	Byzantine ByzantineOptions
	Detect    DetectOptions
}

// Validate reports fleet-option errors.
func (f FleetOptions) Validate() error {
	if f.SampleFrac < 0 || f.SampleFrac > 1 {
		return fmt.Errorf("core: participation sample fraction %v outside [0,1]", f.SampleFrac)
	}
	return f.Byzantine.Validate()
}

// Sampling reports whether per-round participation sampling is active.
func (f FleetOptions) Sampling() bool {
	return f.SampleFrac > 0 && f.SampleFrac < 1
}

// ChaosOptions wraps the run's in-memory transport in the
// internal/chaos link-fault model: every message is delayed per a
// seeded per-pair schedule (base + jitter + spikes + serialization),
// optionally duplicated. Chaos perturbs timing and delivery order,
// never payloads, so seeded Results are identical with it on or off —
// it exists to shake out ordering assumptions and to give the
// adversarial trial matrix realistic link conditions. Disabled (the
// zero value) leaves the transport untouched, byte-identical to the
// pre-chaos pipeline.
type ChaosOptions struct {
	Enabled bool
	// Seed drives the per-message schedule draws (0 = the run seed).
	Seed int64
	// Link knobs, mirroring chaos.Profile.
	BaseDelay     time.Duration
	Jitter        time.Duration
	SpikeProb     float64
	SpikeDelay    time.Duration
	BandwidthBps  int64
	DuplicateProb float64
}

// Profile converts the options to the chaos link profile.
func (c ChaosOptions) Profile() chaos.Profile {
	return chaos.Profile{
		BaseDelay:     c.BaseDelay,
		Jitter:        c.Jitter,
		SpikeProb:     c.SpikeProb,
		SpikeDelay:    c.SpikeDelay,
		BandwidthBps:  c.BandwidthBps,
		DuplicateProb: c.DuplicateProb,
	}
}

// Validate reports chaos-option errors.
func (c ChaosOptions) Validate() error {
	switch {
	case c.BaseDelay < 0 || c.Jitter < 0 || c.SpikeDelay < 0:
		return fmt.Errorf("core: negative chaos delay (base %v, jitter %v, spike %v)", c.BaseDelay, c.Jitter, c.SpikeDelay)
	case c.SpikeProb < 0 || c.SpikeProb > 1:
		return fmt.Errorf("core: chaos spike probability %v outside [0,1]", c.SpikeProb)
	case c.DuplicateProb < 0 || c.DuplicateProb > 1:
		return fmt.Errorf("core: chaos duplicate probability %v outside [0,1]", c.DuplicateProb)
	case c.BandwidthBps < 0:
		return fmt.Errorf("core: negative chaos bandwidth %d", c.BandwidthBps)
	}
	return nil
}

// CheckpointOptions arms durable checkpoint/restore of the Phase 2-2
// session: each edge writes a versioned, CRC-guarded snapshot of its
// in-flight loop state (round counter, delta shadows both directions,
// importance accumulator, fleet membership + epoch, detector strikes)
// to Path at round boundaries, atomically and off the critical path,
// and each device snapshots its refined header after every applied
// downlink. A killed process restarts with System.ResumeRole: the edge
// reloads the latest snapshot and broadcasts SESSION-RESUME so devices
// retransmit the rounds the crash may have swallowed; a device warm-
// starts from its own snapshot through the RESYNC path, falling back
// to a dense resync when the snapshot is missing or stale. Snapshots
// never change what a run computes — a checkpointed seeded run is
// bitwise identical to an unchekpointed one; only durability and a
// little write bandwidth are added.
type CheckpointOptions struct {
	// Path is the snapshot directory (created if missing). Empty
	// disables checkpointing.
	Path string
	// Every writes a snapshot at the start of every Nth round (0 or 1 =
	// every round).
	Every int
	// Fsync forces snapshot bytes (and the directory rename) to stable
	// storage before a write counts — crash-proof against power loss,
	// not just process death, at the cost of write latency.
	Fsync bool
}

// Enabled reports whether checkpointing is armed.
func (o CheckpointOptions) Enabled() bool { return o.Path != "" }

// EveryN returns the snapshot period in rounds, defaulted.
func (o CheckpointOptions) EveryN() int {
	if o.Every <= 1 {
		return 1
	}
	return o.Every
}

// Validate reports checkpoint-option errors.
func (o CheckpointOptions) Validate() error {
	if o.Every < 0 {
		return fmt.Errorf("core: negative checkpoint period %d", o.Every)
	}
	if !o.Enabled() && (o.Every > 0 || o.Fsync) {
		return fmt.Errorf("core: checkpoint options set without a checkpoint path")
	}
	return nil
}

// Config assembles every knob of a full ACME run.
type Config struct {
	// Model and data.
	Backbone   nn.BackboneConfig
	NumClasses int
	Dataset    data.Spec

	// Fleet topology and per-round participation sampling.
	Fleet            FleetOptions
	EdgeServers      int // number of edge servers S (device clusters)
	SamplesPerDevice int
	ClassesPerDevice int
	Level            data.ConfusionLevel
	// DataGroups is the number of distinct class groups across devices
	// (0 = every device draws its own group).
	DataGroups int
	// PublicSamples sizes the cloud's generalized public dataset D̃c.
	PublicSamples int
	// FeatureDim is the probe feature dimension used for Wasserstein
	// similarity.
	FeatureDim int
	// StorageFractions maps each device position within a cluster to a
	// storage budget expressed as a fraction of the reference model's
	// parameter count (the micro-scale analogue of the paper's
	// 200–400 MB ladder).
	StorageFractions []float64
	// SharedFraction is the share of each device's local data uploaded
	// to its edge server as the shared dataset (§IV-A: 10–20%; the data
	// volume study uses the lower bound).
	SharedFraction float64

	// Phase 1.
	Widths         []float64
	Depths         []int
	Pareto         pareto.Config
	Distill        prune.DistillConfig
	PretrainEpochs int
	CloudProbe     int // samples used to score candidate backbones

	// Phase 2-1.
	Search nas.SearchConfig

	// Phase 2-2.
	Phase2Rounds    int // T: maximum loop rounds
	DiscardPerRound int // units pruned per loop round
	// ConvergenceEpsilon ends the single loop early when the relative
	// change between consecutive aggregated importance sets falls below
	// it (§II-A: "repeated iteratively until convergence"). 0 keeps the
	// fixed-T behaviour.
	ConvergenceEpsilon float64
	// ImportanceRefreshPeriod makes device-side importance incremental:
	// instead of recomputing the full importance set from scratch every
	// round, a device keeps its running batch accumulator and folds only
	// two newly drawn minibatches per round, with a full refresh (reset +
	// complete recompute) every this-many rounds to bound drift. ≤1
	// refreshes every round — bitwise identical to the legacy full
	// recompute. Incremental rounds also overlap compute with
	// communication: the new batches are folded while the round's upload
	// is in flight instead of on the next round's critical path.
	ImportanceRefreshPeriod int
	// Straggler is the round cutoff policy and slow-device injection.
	Straggler   StragglerPolicy
	LocalEpochs int
	LocalBatch  int
	LocalLR     float64
	ProbeSize   int // D̃ probe size for Wasserstein similarity
	Aggregation AggregationMethod
	// DistanceScale multiplies raw distribution distances before the
	// Eq. 19-20 similarity mapping (micro-scale features produce
	// distances ≪ 1, which would wash out the row softmax).
	DistanceScale float64

	// CheckpointDir, when non-empty, makes every device save its final
	// customized model (backbone + header) as device-N.ckpt in that
	// directory, loadable with LoadDeviceCheckpoint.
	CheckpointDir string

	// Checkpoint is the mid-flight durability policy: when armed, every
	// edge (and device) persists a restartable session snapshot at
	// round boundaries, and System.ResumeRole can rehydrate a crashed
	// role from the latest snapshot.
	Checkpoint CheckpointOptions

	// Parallelism caps the goroutines the tensor kernels may use for
	// large matrix multiplies. 0 leaves the process-wide setting
	// unchanged (default: GOMAXPROCS). Results are bitwise independent
	// of the setting; it only trades cores for wall time.
	Parallelism int

	// Wire is the payload shaping: entropy coding, quantization,
	// sparsification.
	Wire WireOptions

	// Chaos injects seeded link faults into the in-memory transport.
	Chaos ChaosOptions

	Seed int64
}

// AggregationMethod selects the Phase 2-2 weighting scheme.
type AggregationMethod int

// Aggregation methods (Fig. 11 comparison).
const (
	AggregateWasserstein AggregationMethod = iota + 1 // ACME
	AggregateJS
	AggregateAverage
	AggregateAlone
)

// String implements fmt.Stringer.
func (m AggregationMethod) String() string {
	switch m {
	case AggregateWasserstein:
		return "wasserstein"
	case AggregateJS:
		return "js"
	case AggregateAverage:
		return "average"
	case AggregateAlone:
		return "alone"
	default:
		return fmt.Sprintf("AggregationMethod(%d)", int(m))
	}
}

// DefaultConfig returns a micro-scale configuration that runs a full
// pipeline in seconds: 2 edge clusters × 3 devices on the
// cifar100-like synthetic dataset.
func DefaultConfig() Config {
	spec := data.CIFAR100Like()
	search := nas.DefaultSearchConfig()
	search.Epochs = 2
	search.ChildBatches = 6
	search.ControllerUpdates = 1
	search.FinalCandidates = 4
	return Config{
		Backbone: nn.BackboneConfig{
			InputDim:   spec.Dim,
			NumPatches: 8,
			DModel:     32,
			NumHeads:   4,
			Hidden:     64,
			Depth:      4,
		},
		NumClasses:       spec.NumClasses,
		Dataset:          spec,
		Fleet:            FleetOptions{Spec: cluster.FleetSpec{Clusters: 2, DevicesPerCluster: 3, Epochs: 3}},
		EdgeServers:      2,
		SamplesPerDevice: 160,
		ClassesPerDevice: 20,
		Level:            data.C1,
		DataGroups:       2,
		PublicSamples:    400,
		FeatureDim:       16,
		StorageFractions: []float64{0.55, 0.75, 0.95},
		SharedFraction:   0.06,
		Widths:           []float64{0.25, 0.5, 0.75, 1.0},
		Depths:           []int{1, 2, 3, 4},
		Pareto:           pareto.DefaultConfig(),
		Distill:          prune.DistillConfig{Lambda1: 1, Lambda2: 0.5, Epochs: 1, Batch: 16, LR: 1e-3},
		PretrainEpochs:   4,
		CloudProbe:       128,
		Search:           search,
		Phase2Rounds:     2,
		DiscardPerRound:  4,
		LocalEpochs:      2,
		LocalBatch:       16,
		LocalLR:          2e-3,
		ProbeSize:        32,
		Aggregation:      AggregateWasserstein,
		DistanceScale:    8,
		Seed:             1,
	}
}

// SampleSeed returns the participation-sampling seed: the explicit
// Fleet.SampleSeed, or the run seed when unset.
func (c Config) SampleSeed() int64 {
	if c.Fleet.SampleSeed != 0 {
		return c.Fleet.SampleSeed
	}
	return c.Seed
}

// ChaosSeed returns the link-fault seed: the explicit Chaos.Seed, or
// the run seed when unset.
func (c Config) ChaosSeed() int64 {
	if c.Chaos.Seed != 0 {
		return c.Chaos.Seed
	}
	return c.Seed
}

// ByzantineSeed returns the lie-draw seed: the explicit
// Fleet.Byzantine.Seed, or the run seed when unset.
func (c Config) ByzantineSeed() int64 {
	if c.Fleet.Byzantine.Seed != 0 {
		return c.Fleet.Byzantine.Seed
	}
	return c.Seed
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Backbone.Validate(); err != nil {
		return err
	}
	if err := c.Dataset.Validate(); err != nil {
		return err
	}
	if err := c.Wire.Validate(); err != nil {
		return err
	}
	if err := c.Straggler.Validate(); err != nil {
		return err
	}
	if err := c.Fleet.Validate(); err != nil {
		return err
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return err
	}
	switch {
	case c.NumClasses <= 0:
		return fmt.Errorf("core: non-positive class count")
	case c.EdgeServers <= 0:
		return fmt.Errorf("core: need at least one edge server")
	case c.SamplesPerDevice <= 0:
		return fmt.Errorf("core: non-positive samples per device")
	case len(c.Widths) == 0 || len(c.Depths) == 0:
		return fmt.Errorf("core: empty width/depth lattice")
	case c.SharedFraction < 0 || c.SharedFraction > 1:
		return fmt.Errorf("core: shared fraction %v outside [0,1]", c.SharedFraction)
	case c.Phase2Rounds < 0:
		return fmt.Errorf("core: negative phase-2 rounds")
	case c.ImportanceRefreshPeriod < 0:
		return fmt.Errorf("core: negative importance refresh period %d", c.ImportanceRefreshPeriod)
	case c.Parallelism < 0:
		return fmt.Errorf("core: negative parallelism %d", c.Parallelism)
	}
	for _, d := range c.Depths {
		if d <= 0 || d > c.Backbone.Depth {
			return fmt.Errorf("core: depth %d outside [1,%d]", d, c.Backbone.Depth)
		}
	}
	for _, w := range c.Widths {
		if w <= 0 || w > 1 {
			return fmt.Errorf("core: width %v outside (0,1]", w)
		}
	}
	return nil
}
