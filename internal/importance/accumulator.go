package importance

import (
	"fmt"
	"math/rand"

	"acme/internal/data"
	"acme/internal/nn"
)

// Accumulator maintains a running sum of per-minibatch Taylor
// importance contributions Q⁽¹⁾ᵣ = (gᵣ·υᵣ)² (Eq. 17) across calls, so
// a device can fold only newly seen batches into its previous round's
// state instead of recomputing the full set from scratch every round.
// pinned is a classifier with its parameter list fixed up front.
type pinned struct {
	nn.Classifier
	params []*nn.Param
}

func (p pinned) Params() []*nn.Param { return p.params }

// Average returns the per-batch mean the paper uses as the pruning
// criterion; Reset starts a fresh accumulation (the periodic full
// refresh that bounds drift between the running average and a from-
// scratch recompute).
//
// A Reset followed by one FoldBatches over the full batch budget is
// arithmetically identical to the legacy single-shot computation
// (nas.ComputeImportanceSet is implemented on top of exactly that), so
// incremental mode with refresh period 1 reproduces the non-
// incremental path bitwise.
type Accumulator struct {
	sum     *Set
	batches int
}

// NewAccumulator returns an empty accumulator; the set shape is
// adopted from the module on the first fold.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Reset discards all folded batches (the full-refresh path). The
// backing set is zeroed in place, so the next fold reuses its storage.
func (a *Accumulator) Reset() {
	if a.sum != nil {
		for _, l := range a.sum.Layers {
			for i := range l {
				l[i] = 0
			}
		}
	}
	a.batches = 0
}

// Batches reports how many minibatches the running sum currently holds.
func (a *Accumulator) Batches() int { return a.batches }

// FoldBatches draws a fresh shuffle of ds and folds up to maxBatches
// minibatches of batchSize samples into the running sum: each batch
// runs forward/backward with accumulated gradients, then adds its
// (g·υ)² terms. Gradients are cleared on return; the weights are not
// updated. It returns how many batches were folded.
func (a *Accumulator) FoldBatches(c nn.Classifier, ds *data.Dataset, batchSize, maxBatches int, rng *rand.Rand) (int, error) {
	if batchSize <= 0 {
		batchSize = 16
	}
	// One parameter list for the whole call: a module may rebuild its
	// list on every Params(), and each batch below asks twice.
	c = pinned{c, c.Params()}
	if a.sum == nil {
		a.sum = NewSet(c)
	}
	order := rng.Perm(ds.Len())
	folded := 0
	for start := 0; start < len(order) && folded < maxBatches; start += batchSize {
		end := start + batchSize
		if end > len(order) {
			end = len(order)
		}
		if err := nn.BatchGradients(c, ds.X, ds.Y, order[start:end]); err != nil {
			return folded, fmt.Errorf("importance: fold: %w", err)
		}
		if err := a.sum.Accumulate(c); err != nil {
			return folded, err
		}
		folded++
	}
	nn.ZeroGrads(c)
	a.batches += folded
	return folded, nil
}

// Average returns the per-batch mean of the running sum as a fresh
// set, leaving the accumulator undisturbed so later folds keep
// extending it. With no folded batches it returns the zeroed shape
// (matching the legacy single-shot behaviour on an empty dataset).
func (a *Accumulator) Average() (*Set, error) {
	if a.sum == nil {
		return nil, fmt.Errorf("importance: average of empty accumulator")
	}
	out := a.sum.Clone()
	if a.batches > 0 {
		out.Scale(1 / float64(a.batches))
	}
	return out, nil
}
