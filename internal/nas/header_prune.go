package nas

import (
	"fmt"
	"math/rand"
	"sort"

	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nn"
)

// ComputeImportanceSet trains nothing: it runs forward/backward over up
// to maxBatches minibatches of local data and accumulates the
// first-order Taylor parameter importances Q⁽¹⁾ᵣ = (gᵣυᵣ)² of the
// header parameters (Eq. 16–18), returning their per-minibatch average.
// It is the single-shot form of importance.Accumulator: one fresh
// accumulation over the full batch budget.
func ComputeImportanceSet(h *HeaderModel, local *data.Dataset, batchSize, maxBatches int, rng *rand.Rand) (*importance.Set, error) {
	acc := importance.NewAccumulator()
	if _, err := acc.FoldBatches(h, local, batchSize, maxBatches, rng); err != nil {
		return nil, fmt.Errorf("nas: importance: %w", err)
	}
	return acc.Average()
}

// unit is a prunable neuron: a group of header parameters that are
// discarded together (a conv output channel or a classifier hidden
// neuron).
type unit struct {
	score float64
	apply func()
}

// ApplyImportance rebuilds the header's masks from an importance set:
// it ranks all prunable units by their joint parameter importance and
// discards the discardUnits least important ones (§III-D1: "discard the
// preset number of neurons with minor joint importance of its
// parameters"). At least one classifier hidden neuron always survives.
func (h *HeaderModel) ApplyImportance(set *importance.Set, discardUnits int) error {
	params := h.Params()
	if len(set.Layers) != len(params) {
		return fmt.Errorf("nas: set has %d layers, header has %d tensors", len(set.Layers), len(params))
	}
	for i, p := range params {
		if p.NumParams() != len(set.Layers[i]) {
			return fmt.Errorf("nas: layer %d size %d vs %d", i, p.NumParams(), len(set.Layers[i]))
		}
	}
	// Reset all masks to fully active, then re-derive.
	defer h.indexMasks()
	for u := range h.opMasks {
		for b := range h.opMasks[u] {
			h.opMasks[u][b][0] = nil
			h.opMasks[u][b][1] = nil
		}
	}
	for j := range h.HiddenMask {
		h.HiddenMask[j] = true
	}
	if discardUnits <= 0 {
		return nil
	}

	layerIdx := make(map[*nn.Param]int, len(params))
	for i, p := range params {
		layerIdx[p] = i
	}
	var units []unit

	// Conv output channels.
	seen := make(map[*nn.Param]bool)
	for u := range h.ops {
		for b := range h.ops[u] {
			for s := 0; s < 2; s++ {
				conv, ok := h.ops[u][b][s].(*nn.Conv1D)
				if !ok || seen[conv.W] {
					continue
				}
				seen[conv.W] = true
				qw := set.Layers[layerIdx[conv.W]]
				qb := set.Layers[layerIdx[conv.B]]
				dim := conv.Dim
				rows := conv.Kernel * conv.Dim
				u, b, s := u, b, s
				for j := 0; j < dim; j++ {
					var score float64
					for r := 0; r < rows; r++ {
						score += qw[r*dim+j]
					}
					score += qb[j]
					j := j
					units = append(units, unit{score: score, apply: func() {
						if h.opMasks[u][b][s] == nil {
							h.opMasks[u][b][s] = fullMask(dim)
						}
						h.opMasks[u][b][s][j] = false
					}})
				}
			}
		}
	}

	// Classifier hidden neurons.
	qf1w := set.Layers[layerIdx[h.FC1.W]]
	qf1b := set.Layers[layerIdx[h.FC1.B]]
	qf2w := set.Layers[layerIdx[h.FC2.W]]
	hiddenN := h.Cfg.Hidden
	classes := h.Cfg.NumClasses
	in2d := 2 * h.Cfg.DModel
	for j := 0; j < hiddenN; j++ {
		var score float64
		for r := 0; r < in2d; r++ {
			score += qf1w[r*hiddenN+j]
		}
		score += qf1b[j]
		for c := 0; c < classes; c++ {
			score += qf2w[j*classes+c]
		}
		j := j
		units = append(units, unit{score: score, apply: func() { h.HiddenMask[j] = false }})
	}

	sort.SliceStable(units, func(i, j int) bool { return units[i].score < units[j].score })
	if discardUnits > len(units) {
		discardUnits = len(units)
	}
	for i := 0; i < discardUnits; i++ {
		units[i].apply()
	}
	// Never let the classifier go fully dark.
	if allFalse(h.HiddenMask) {
		h.HiddenMask[0] = true
	}
	return nil
}

// TrainLocal fine-tunes the header on local data with the backbone
// frozen (Phase 2-2 device-side training step). It runs the backbone on
// every sample of every epoch; a device, whose backbone stays frozen
// for good, trains through Frozen instead.
func (h *HeaderModel) TrainLocal(local *data.Dataset, epochs, batch int, lr float64, rng *rand.Rand) error {
	prev := h.Cfg.TrainBackbone
	h.Cfg.TrainBackbone = false
	defer func() { h.Cfg.TrainBackbone = prev }()
	return trainHeader(h, h.Params(), local, epochs, batch, lr, rng)
}

// trainHeader is epochs of nn.TrainEpoch with a fresh Adam, specialized
// to a header's parameters (the backbone stays frozen even where
// Forward runs it). params is c.Params(), built once for the call.
func trainHeader(c nn.Classifier, params []*nn.Param, ds *data.Dataset, epochs, batch int, lr float64, rng *rand.Rand) error {
	if batch <= 0 {
		batch = 16
	}
	opt := nn.NewAdam(lr)
	for e := 0; e < epochs; e++ {
		order := rng.Perm(ds.Len())
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			for _, p := range params {
				p.ZeroGrad()
			}
			for _, i := range order[start:end] {
				logits, err := c.Forward(ds.X[i])
				if err != nil {
					return err
				}
				_, dl := nn.CrossEntropy(logits, ds.Y[i])
				for j := range dl {
					dl[j] /= float64(end - start)
				}
				c.Backward(dl)
			}
			opt.Step(params)
		}
	}
	return nil
}

func fullMask(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

func allFalse(m []bool) bool {
	for _, v := range m {
		if v {
			return false
		}
	}
	return true
}
