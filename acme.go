// Package acme is the public API of this reproduction of "ACME:
// Adaptive Customization of Large Models via Distributed Systems"
// (Dai, Qiu, Gao, Zhao, Wang — ICDCS 2025).
//
// ACME customizes Transformer-based models for fleets of heterogeneous
// devices through a bidirectional single-loop distributed system:
//
//   - the cloud server prunes and distills a reference backbone into
//     (width, depth) variants and assigns each edge cluster the most
//     cost-efficient one via a Pareto Front Grid over
//     (loss, energy, size) under the cluster's storage constraint
//     (Phase 1);
//   - each edge server searches a classification header matched to its
//     backbone with an ENAS-style LSTM controller (Phase 2-1);
//   - devices refine the header on local data, exchanging Taylor
//     importance sets that the edge aggregates with Wasserstein-distance
//     similarity weights (Phase 2-2).
//
// Quick start:
//
//	cfg := acme.DefaultConfig()
//	cfg.EdgeServers = 2
//	res, err := acme.Run(context.Background(), cfg)
//	if err != nil { ... }
//	fmt.Println(res.MeanAccuracyFinal())
//
// The heavy lifting lives in internal packages (nn, prune, pareto, nas,
// wasserstein, aggregate, transport, core); this package re-exports the
// configuration surface and the system runner.
package acme

import (
	"context"
	"flag"

	"acme/internal/core"
	"acme/internal/data"
	"acme/internal/transport"
)

// Config assembles every knob of a full ACME run. See core.Config for
// field documentation.
type Config = core.Config

// WireOptions groups the payload-shaping knobs (Config.Wire): entropy
// coding, quantization, delta records and top-k, an encoder policy of
// those records.
type WireOptions = core.WireOptions

// StragglerPolicy groups the round-scoped straggler cutoff and the
// deterministic slow-device injection (Config.Straggler).
type StragglerPolicy = core.StragglerPolicy

// FleetOptions groups the fleet topology and the per-round
// participation sampling (Config.Fleet).
type FleetOptions = core.FleetOptions

// ByzantineOptions injects adversarial devices into the fleet
// (Config.Fleet.Byzantine): the first Count device IDs corrupt their
// importance uploads with a seeded strategy.
type ByzantineOptions = core.ByzantineOptions

// CheckpointOptions arms durable checkpoint/restore of mid-flight
// sessions (Config.Checkpoint): versioned, CRC-guarded snapshots at
// round boundaries, restored with System.ResumeRole.
type CheckpointOptions = core.CheckpointOptions

// Result aggregates the outcome of one run: per-device reports,
// backbone assignments, and measured traffic.
type Result = core.Result

// DeviceReport is one device's final metrics.
type DeviceReport = core.DeviceReport

// System is a configured fleet ready to Run.
type System = core.System

// AggregationMethod selects the Phase 2-2 weighting scheme.
type AggregationMethod = core.AggregationMethod

// Aggregation methods for Config.Aggregation.
const (
	AggregateWasserstein = core.AggregateWasserstein // ACME
	AggregateJS          = core.AggregateJS
	AggregateAverage     = core.AggregateAverage
	AggregateAlone       = core.AggregateAlone
)

// QuantMode selects the wire precision of model-parameter and
// importance payloads (Config.Wire.Quantization).
type QuantMode = core.QuantMode

// Quantization modes for Config.Wire.Quantization.
const (
	QuantLossless = core.QuantLossless // exact payloads (default)
	QuantFloat16  = core.QuantFloat16  // IEEE half precision, 4× smaller params
	QuantInt8     = core.QuantInt8     // scaled signed bytes, 8× smaller params
	QuantMixed    = core.QuantMixed    // per-layer float16/int8: mass-ranked importance, error-tested params
)

// Phase2RoundStat traces one edge round of the Phase 2-2 importance
// loop (Result.Phase2Rounds): uplink and downlink bytes, dense vs
// delta message counts in both directions, and edge busy time.
type Phase2RoundStat = core.Phase2RoundStat

// DeviceRoundStat traces one device round of the loop
// (Result.DeviceRounds): critical-path importance compute vs batches
// folded while the upload was in flight.
type DeviceRoundStat = core.DeviceRoundStat

// MessageKind tags the protocol message types (see Result.Stats
// per-kind accounting).
type MessageKind = transport.Kind

// TrafficStats aggregates per-kind wire/raw byte counters.
type TrafficStats = transport.Stats

// ConfusionLevel indexes the non-IID data-difficulty ladder.
type ConfusionLevel = data.ConfusionLevel

// Confusion levels for Config.Level.
const (
	IID = data.IID
	C1  = data.C1
	C2  = data.C2
	C3  = data.C3
)

// DefaultConfig returns a micro-scale configuration that runs a full
// pipeline in seconds.
func DefaultConfig() Config { return core.DefaultConfig() }

// BindFlags declares the run flags shared by every ACME command line
// on fs, defaulted from *cfg, and returns the function that writes the
// parsed values into *cfg after fs.Parse. See core.BindFlags.
func BindFlags(fs *flag.FlagSet, cfg *Config) (apply func() error) {
	return core.BindFlags(fs, cfg)
}

// NewSystem validates cfg and materializes the fleet, datasets, and
// in-memory network.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Run executes the full three-tier pipeline on a system of its own and
// returns the result; the system's network is closed when Run returns.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run(ctx)
	// The network is this run's own: closing it releases every frame
	// still parked in an inbox nobody reads. A chaos network first waits
	// for its delayed deliveries, then closes the memory network inside;
	// its error names deliveries that failed, which res already reflects.
	if c, ok := sys.Net.(transport.Transport); ok {
		c.Close()
	}
	return res, err
}

// Network moves protocol messages between named nodes. The in-memory
// implementation is used by Run; NewTCPNetwork provides a socket-backed
// one for multi-process deployments.
type Network = transport.Network

// Transport is the substrate contract — Network plus traffic counters
// and Close — implemented by the in-memory, TCP, and fault-injecting
// networks alike.
type Transport = transport.Transport

// Session is the session-oriented API over a Network: the typed
// control plane (JOIN / LEAVE / RESYNC-REQUEST / ROUND-CUTOFF) and the
// round-scoped Gather primitive with straggler quorum and deadline.
type Session = transport.Session

// TCPNetwork is a socket-backed Network with supervised per-peer
// links: reconnect with capped exponential backoff, connection reuse
// via the JOIN handshake, LEAVE on close; close it when done.
type TCPNetwork = transport.TCP

// NewTCPNetwork starts a TCP network node for the named role listening
// on addr, with peers mapping every role name to its address.
func NewTCPNetwork(node, addr string, peers map[string]string) (*TCPNetwork, error) {
	return transport.NewTCP(node, addr, peers)
}

// NewSystemWithNetwork builds the system over a caller-provided network
// (e.g. a TCPNetwork). Every participating process must use an
// identical Config, then call System.RunRole for its own role.
func NewSystemWithNetwork(cfg Config, net Network) (*System, error) {
	return core.NewSystemWithNetwork(cfg, net)
}
