package nn

import (
	"fmt"

	"acme/internal/tensor"
)

// A Pass runs minibatches through a classifier one sample at a time, as
// the serial loops always have, but the weight gradients of its stacked
// layers (Stacking) take the shape of the replicas' fold (replica.go):
// each such layer records its gradient operands per sample, and after
// every foldChunk of its samples, and at the end of a minibatch, adds
// them into Param.Grad with one MatMulTransAAcc and one SumRowsInto over
// the rows stacked. The stacked product visits the rows in the same
// ascending order, with the same zero skips, as one call per sample, so
// the gradients are bit-identical to the per-sample loop's. Every logits
// gradient is written into one buffer. The records and that buffer are
// borrowed from the scratch pool and go back on Release, and so, for a
// classifier that takes a Scratch, are its layers' buffers.

// foldChunk is how many samples a stacked layer records between folds.
// It bounds what a Pass holds, ≈ 0.4 MB for a header of eight k5
// convolutions; any chunking adds the terms in the same order.
const foldChunk = 4

// Stackable is a layer whose weight gradients a Pass folds stacked: a
// *Linear or a *Conv1D. Under a Pass it records its input and dy per
// sample.
type Stackable interface {
	setRec(r *rec)
	foldRec(r *rec)
}

// Stacking is a classifier that names the layers a Pass folds stacked.
// Each adds its weight gradients only from its Backward (or
// BackwardParams), out of dy and the input of its last Forward, which
// must be intact until then.
type Stacking interface {
	StackedLayers() []Stackable
}

// Pass is a minibatch pass over one classifier, for the minibatches of
// one call. The caller releases it when the call ends.
type Pass struct {
	c      Classifier
	recs   []rec
	stacks []stack
	dl     *slab
	cols   *slab         // the convolutions' im2col rows at a fold
	colsM  tensor.Matrix // the view of cols a fold uses
	sc     *Scratch      // c's layer buffers, if it takes them
}

// NewPass returns a Pass over c, whose stacked layers record, and whose
// layers take their buffers from the Pass's Scratch, from now until
// Release.
func NewPass(c Classifier) *Pass {
	p := &Pass{c: c, sc: lendScratch(c)}
	s, ok := c.(Stacking)
	if !ok {
		return p
	}
	layers := s.StackedLayers()
	p.recs = make([]rec, len(layers))
	p.stacks = make([]stack, 2*len(layers))
	ops := make([]*stack, len(p.stacks))
	for i := range ops {
		ops[i] = &p.stacks[i]
	}
	for i, l := range layers {
		p.recs[i] = rec{ops: ops[2*i : 2*i+2 : 2*i+2], layer: l, pass: p}
		l.setRec(&p.recs[i])
	}
	return p
}

// Run adds the cross-entropy gradients of the samples xs[i], i in idx,
// into the classifier's Param.Grad in idx order, each logits gradient
// divided by n (a minibatch mean; 1 for a plain sum). It zeroes nothing
// and moves no weight.
func (p *Pass) Run(xs [][]float64, ys []int, idx []int, n float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("nn: %d samples vs %d labels", len(xs), len(ys))
	}
	for _, i := range idx {
		if i < 0 || i >= len(xs) {
			return fmt.Errorf("nn: batch index %d outside [0,%d)", i, len(xs))
		}
		logits, err := p.c.Forward(xs[i])
		if err != nil {
			return fmt.Errorf("nn: batch forward: %w", err)
		}
		if p.dl == nil || len(p.dl.data) != len(logits) {
			if p.dl != nil {
				giveBack(p.dl)
			}
			p.dl = borrow(len(logits))
		}
		dl := p.dl.data
		CrossEntropy(dl, logits, ys[i])
		if n != 1 {
			for j := range dl {
				dl[j] /= n
			}
		}
		p.c.Backward(dl)
	}
	for i := range p.recs {
		p.recs[i].fold()
	}
	return nil
}

// Release takes the records off the stacked layers, which accumulate
// directly again, and gives back everything the Pass borrowed, its
// layers' buffers included.
func (p *Pass) Release() {
	p.sc.end(p.c)
	p.sc = nil
	for i := range p.recs {
		p.recs[i].layer.setRec(nil)
		p.recs[i].n = 0
	}
	for i := range p.stacks {
		if s := &p.stacks[i]; s.lease != nil {
			giveBack(s.lease)
			s.lease, s.data = nil, nil
		}
	}
	if p.dl != nil {
		giveBack(p.dl)
		p.dl = nil
	}
	if p.cols != nil {
		giveBack(p.cols)
		p.cols = nil
	}
}

// colScratch returns a rows × cols matrix over the Pass's im2col
// scratch, borrowing a larger slab when the current one is short.
func (p *Pass) colScratch(rows, cols int) *tensor.Matrix {
	if p.cols == nil || len(p.cols.data) < rows*cols {
		if p.cols != nil {
			giveBack(p.cols)
		}
		p.cols = borrow(rows * cols)
	}
	p.colsM = tensor.Matrix{Rows: rows, Cols: cols, Data: p.cols.data[:rows*cols]}
	return &p.colsM
}

// BatchGradients zeroes c's gradients and accumulates one minibatch of
// cross-entropy gradients over the samples at idx, leaving them in
// place for the caller (an optimizer step, or a Taylor importance fold
// that reads g·υ per parameter). The model weights are not updated.
func BatchGradients(c Classifier, xs [][]float64, ys []int, idx []int) error {
	ZeroGrads(c)
	p := NewPass(c)
	defer p.Release()
	return p.Run(xs, ys, idx, 1)
}

// append records a Pass's operands of one sample, folding the records
// first when they are full.
func (r *rec) append(ms []*tensor.Matrix) {
	if r.n == foldChunk {
		r.fold()
	}
	for i, m := range ms {
		s := r.ops[i]
		if s.lease == nil {
			s.rows, s.cols = m.Rows, m.Cols
			s.lease = borrow(foldChunk * m.Rows * m.Cols)
			s.data = s.lease.data
		}
		s.put(r.n, m)
	}
	r.n++
}

// fold adds a Pass's records since the last fold into the layer's
// gradients, stacked.
func (r *rec) fold() {
	if r.n > 0 {
		r.layer.foldRec(r)
		r.n = 0
	}
}
