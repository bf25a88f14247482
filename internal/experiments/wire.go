package experiments

import (
	"time"

	"acme/internal/core"
)

// Wire options applied to every measured system run, settable from
// acmebench's -quant/-delta/-entropy/-refresh flags. Zero values keep
// the config defaults (lossless payloads, dense exchange,
// full importance recompute every round).
var (
	quantMode       core.QuantMode
	deltaExchange   bool
	entropyCoding   bool
	refreshPeriod   int
	stragglerQuorum float64
	stragglerCutoff time.Duration
)

// SetWireOptions overrides the quantization, delta
// encoding (both directions), entropy coding of bulk payloads, and the
// device importance refresh period used by the measured (micro-scale)
// experiments.
func SetWireOptions(quant core.QuantMode, delta, entropy bool, refresh int) {
	quantMode = quant
	deltaExchange = delta
	entropyCoding = entropy
	refreshPeriod = refresh
}

// SetSessionOptions overrides the straggler cutoff of the measured
// experiments' edge rounds (acmebench's -quorum/-cutoff flags). Both
// zero keeps the legacy wait-for-everyone behaviour.
func SetSessionOptions(quorum float64, cutoff time.Duration) {
	stragglerQuorum = quorum
	stragglerCutoff = cutoff
}

func applyWireOptions(cfg *core.Config) {
	if quantMode != core.QuantLossless {
		cfg.Wire.Quantization = quantMode
	}
	if deltaExchange {
		cfg.Wire.DeltaImportance = true
	}
	if entropyCoding {
		cfg.Wire.Entropy = true
	}
	if refreshPeriod > 0 {
		cfg.ImportanceRefreshPeriod = refreshPeriod
	}
	// Apply even a half-set pair: core's Config.Validate rejects
	// quorum-without-deadline loudly, exactly as acmesim/acmenode do,
	// instead of silently measuring the wait-for-everyone path.
	if stragglerQuorum != 0 || stragglerCutoff != 0 {
		cfg.Straggler.Quorum = stragglerQuorum
		cfg.Straggler.Deadline = stragglerCutoff
	}
}
