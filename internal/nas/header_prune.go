package nas

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nn"
)

// pruneScratch is ApplyImportance's working memory, pooled between
// calls so that a header holds none of it and a call allocates nothing:
// the prunable convolutions and the units of one call.
type pruneScratch struct {
	convs []prunedConv
	units []unit
}

var pruneScratches = sync.Pool{New: func() any { return new(pruneScratch) }}

// prunedConv is a convolution whose output channels are prunable units,
// at the first (u, b, slot) that uses it; mask is that slot's mask from
// before the call, storage for the one the call derives.
type prunedConv struct {
	conv    *nn.Conv1D
	u, b, s int
	mask    []bool
}

// unit is a prunable neuron: output channel j of convs[conv], or
// classifier hidden neuron j when conv is -1.
type unit struct {
	score   float64
	conv, j int
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
	sc := pruneScratches.Get().(*pruneScratch)
	defer pruneScratches.Put(sc)
	sc.convs = sc.convs[:0]
	for u := range h.ops {
		for b := range h.ops[u] {
			for s := 0; s < 2; s++ {
				conv, ok := h.ops[u][b][s].(*nn.Conv1D)
				if ok && !slices.ContainsFunc(sc.convs, func(c prunedConv) bool { return c.conv == conv }) {
					sc.convs = append(sc.convs, prunedConv{conv: conv, u: u, b: b, s: s, mask: h.opMasks[u][b][s]})
				}
			}
		}
	}
	// Reset all masks to fully active, then re-derive.
	defer func() {
		for i := range sc.convs {
			sc.convs[i] = prunedConv{}
		}
		h.indexMasks()
	}()
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

	// Conv output channels.
	units := sc.units[:0]
	for k, c := range sc.convs {
		qw := set.Layers[slices.Index(params, c.conv.W)]
		qb := set.Layers[slices.Index(params, c.conv.B)]
		dim := c.conv.Dim
		rows := c.conv.Kernel * c.conv.Dim
		for j := 0; j < dim; j++ {
			var score float64
			for r := 0; r < rows; r++ {
				score += qw[r*dim+j]
			}
			score += qb[j]
			units = append(units, unit{score: score, conv: k, j: j})
		}
	}

	// Classifier hidden neurons.
	qf1w := set.Layers[slices.Index(params, h.FC1.W)]
	qf1b := set.Layers[slices.Index(params, h.FC1.B)]
	qf2w := set.Layers[slices.Index(params, h.FC2.W)]
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
		units = append(units, unit{score: score, conv: -1, j: j})
	}
	sc.units = units

	// Ascending by score with ties in unit order: the ranking
	// sort.SliceStable gave under score < score, NaNs included.
	slices.SortStableFunc(units, func(a, b unit) int {
		switch {
		case a.score < b.score:
			return -1
		case b.score < a.score:
			return 1
		}
		return 0
	})
	for _, un := range units[:min(discardUnits, len(units))] {
		if un.conv < 0 {
			h.HiddenMask[un.j] = false
			continue
		}
		c := &sc.convs[un.conv]
		mask := h.opMasks[c.u][c.b][c.s]
		if mask == nil {
			if mask = c.mask; len(mask) != c.conv.Dim {
				mask = make([]bool, c.conv.Dim)
			}
			for j := range mask {
				mask[j] = true
			}
			h.opMasks[c.u][c.b][c.s] = mask
		}
		mask[un.j] = false
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

// trainHeader is epochs of minibatch training with a fresh Adam,
// specialized to a header's parameters (the backbone stays frozen even
// where Forward runs it). params is c.Params(), built once for the call.
// The minibatches run through one nn.Pass. Everything but the weights is
// borrowed for the call — the Pass's records and layer buffers, the
// optimizer's moments and the gradients — so the header holds none of
// it between calls.
func trainHeader(c nn.Classifier, params []*nn.Param, ds *data.Dataset, epochs, batch int, lr float64, rng *rand.Rand) error {
	if batch <= 0 {
		batch = 16
	}
	// The gradients start zero, and every Step zeroes them again.
	grads := nn.BorrowGrads(params)
	defer grads.Release()
	opt := nn.BorrowAdam(lr)
	defer opt.Release()
	pass := nn.NewPass(c)
	defer pass.Release()
	for e := 0; e < epochs; e++ {
		order := rng.Perm(ds.Len())
		for start := 0; start < len(order); start += batch {
			mb := order[start:min(start+batch, len(order))]
			if err := pass.Run(ds.X, ds.Y, mb, float64(len(mb))); err != nil {
				return err
			}
			opt.Step(params)
		}
	}
	return nil
}

func allFalse(m []bool) bool {
	for _, v := range m {
		if v {
			return false
		}
	}
	return true
}
