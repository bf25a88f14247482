package chaos

// Byzantine device strategies: a Liar deterministically corrupts a
// device's importance uploads before they are encoded, so the edge-side
// detector (detect.go) has something real to find. Whether a given
// round lies, and what the lie looks like, derives from a splitmix64
// hash of (seed, device, round) — reproducible across runs and
// transports, which is what lets the trial matrix report stable
// TPR/FPR numbers.

import "fmt"

// Strategy names a Byzantine corruption mode.
type Strategy string

// Byzantine strategies.
const (
	// StrategyInflate multiplies every importance value by factor (10): the
	// classic self-promotion attack — the device's update dominates the
	// similarity-weighted aggregate.
	StrategyInflate Strategy = "inflate"
	// StrategyFabricate replaces the upload with hash-derived noise
	// scaled to factor× the honest value range: the device never ran
	// training at all.
	StrategyFabricate Strategy = "fabricate"
	// StrategyReplay re-sends the device's previous honest upload:
	// free-riding on stale state instead of computing fresh importance.
	StrategyReplay Strategy = "replay"
)

// ParseStrategy validates a strategy name ("" means none).
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", StrategyInflate, StrategyFabricate, StrategyReplay:
		return Strategy(s), nil
	}
	return "", fmt.Errorf("chaos: unknown byzantine strategy %q (want inflate, fabricate, or replay)", s)
}

// Liar corrupts one device's importance uploads.
type Liar struct {
	// Strategy selects the corruption mode.
	Strategy Strategy
	// Prob is the per-round probability of lying.
	Prob float64
	// Seed and Device identify the hash stream.
	Seed   int64
	Device int

	// prev is the last honest upload, the replay source.
	prev [][]float64
}

// factor scales the corruption: the inflate multiplier and the
// fabricate range multiplier.
const factor = 10

// lies reports whether the liar corrupts the given round.
func (l *Liar) lies(round int) bool {
	if l.Strategy == "" || l.Prob <= 0 {
		return false
	}
	h := draw(l.Seed, fnv1a("byz")^splitmix64(uint64(l.Device)), uint64(round), 0)
	return frac(h) < l.Prob
}

// Corrupt returns the layers the device should upload for the round:
// the input unchanged on honest rounds, a corrupted copy on lying
// rounds. The input is never mutated — the device's own training state
// stays honest, only the wire copy lies.
func (l *Liar) Corrupt(round int, layers [][]float64) [][]float64 {
	lying := l.lies(round)
	if !lying {
		if l.Strategy == StrategyReplay {
			// Keep the replay source fresh: the next lie re-sends the
			// most recent honest upload.
			l.prev = copyLayers(layers)
		}
		return layers
	}
	switch l.Strategy {
	case StrategyInflate:
		out := copyLayers(layers)
		for _, row := range out {
			for i := range row {
				row[i] *= factor
			}
		}
		return out
	case StrategyFabricate:
		out := copyLayers(layers)
		// Scale the noise to factor× the honest maximum so the values
		// are wrong in range, not just in shape.
		var hi float64
		for _, row := range layers {
			for _, v := range row {
				if v > hi {
					hi = v
				}
			}
		}
		if hi == 0 {
			hi = 1
		}
		span := hi * factor
		pair := fnv1a("fab") ^ splitmix64(uint64(l.Device))
		var i uint64
		for _, row := range out {
			for j := range row {
				row[j] = frac(draw(l.Seed, pair, uint64(round), i)) * span
				i++
			}
		}
		return out
	case StrategyReplay:
		if l.prev == nil {
			// Nothing to replay yet: this upload goes out honestly but
			// becomes the replay source, so an always-lying device (Prob
			// 1) freezes on its first upload instead of degenerating
			// into perfect honesty.
			l.prev = copyLayers(layers)
			return layers
		}
		return copyLayers(l.prev)
	}
	return layers
}

func copyLayers(layers [][]float64) [][]float64 {
	out := make([][]float64, len(layers))
	for i, row := range layers {
		out[i] = append([]float64(nil), row...)
	}
	return out
}
