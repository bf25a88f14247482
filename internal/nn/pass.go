package nn

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"acme/internal/tensor"
)

// A Pass runs the samples of a call's minibatches forward and backward,
// one at a time per replica, and adds their gradients into Param.Grad
// bit-identically to one Backward per sample in order.
//
// The layers a classifier names (Stacking) record instead of
// accumulating: a weight's gradient operands (a Linear's x and dy, a
// LayerNorm's x̂ and dy, a convolution's input and dy, …) and the
// importance terms, per sample. After every chunk the fold adds the
// records into the classifier in sample order, through the kernels
// Backward calls: a weight takes one MatMulTransAAcc and one SumRowsInto
// over a replica's rows stacked, which visit the rows in the same
// ascending order, with the same zero skips, as one call per sample. Any
// chunking adds the terms in the same order.
//
// The replicas are the classifier itself and, on a BackboneClassifier
// under TrainEpoch, AccumulateImportance or BatchGradients, copies of it
// that share every parameter and mask and own their scratch:
// min(tensor.Parallelism(), batch) in all. Replica k runs the k-th
// contiguous share of each chunk, and the cores split the fold by job,
// largest first. Under TrainEpoch an Adam step updates each parameter
// right after its job's fold of a minibatch's last chunk. The records
// are borrowed from the scratch pool.

// foldChunk is how many samples a replica records between folds. It
// bounds the records: ≈ 0.6 MB a replica for the cloud's reference
// model, ≈ 0.15 MB for a header of eight k5 convolutions.
const foldChunk = 4

// Stackable is a layer whose gradients a Pass folds stacked. Under a
// Pass (setRec) it records on r per sample; folds appends its fold jobs,
// and fold runs its j-th over one replica's records.
type Stackable interface {
	setRec(r *rec)
	folds(jobs []foldJob) []foldJob
	fold(j int, r *rec)
}

// Stacking is a classifier that names the layers a Pass folds stacked.
// Each records once per sample or never, from its Backward (or
// BackwardParams), out of dy and the state of its last Forward, which
// must be intact until then.
type Stacking interface {
	StackedLayers() []Stackable
}

// foldJob is one weight's fold, with its bias if it has one, or one
// layer's importance terms (no params).
type foldJob struct {
	params   [2]*Param
	cost     int // multiply-adds per recorded row
	layer, j int // the layer's index in StackedLayers, and its job number
}

// Pass is a minibatch pass over one classifier, for the minibatches of
// one call. The caller releases it when the call ends.
type Pass struct {
	reps []*replica
	jobs []foldJob // largest first
	loss float64   // the cross-entropy summed over every sample run

	// TrainEpoch's step after each minibatch, over params, of which rest
	// have no fold job.
	adam         *Adam
	params, rest []*Param

	// The dispatch in flight: a chunk's samples, or its fold.
	xs       [][]float64
	ys       []int
	idx      []int
	div, mul float64   // the logits gradient's scaling
	losses   []float64 // per sample of the chunk
	folding  bool
	stepping bool // the fold steps adam
	bc1, bc2 float64
	next     atomic.Int64 // the next fold job to take

	// The replica goroutines run the dispatch once per new gen, and count
	// pending down.
	gen, pending atomic.Int64
	quit         bool
	alive        sync.WaitGroup

	own     replica // reps[0]: the classifier's own
	ownArr  [1]*replica
	lossArr [foldChunk]float64
}

// replica is one runner of a Pass: its classifier and the buffers it
// takes, the records of its stacked layers, and the state of its sample
// in flight.
type replica struct {
	c      Classifier
	sc     *Scratch
	layers []Stackable
	recs   []rec // one per layer
	slot   int   // the sample in flight, counted from the replica's first of the chunk
	dl     *slab // logits gradient
	err    error // the first failure in the replica's share of a chunk
}

// rec is where a layer records instead of accumulating: one replica's
// samples of a chunk, in slot order.
type rec struct {
	rep   *replica
	ops   []stack // weight-gradient operands, in the order the layer puts them
	two   [2]stack
	terms stack // importance terms, one row per sample
	n     int   // samples recorded since the last fold
}

// stack is one recorded operand, rows × cols per sample, for up to
// foldChunk samples; first views the samples to fold as one matrix.
type stack struct {
	rows, cols int
	first      tensor.Matrix
	lease      *slab
}

// NewPass returns a Pass over c, whose stacked layers record, and whose
// layers take their buffers from the Pass's Scratch, from now until
// Release. It runs every sample on the caller.
func NewPass(c Classifier) *Pass { return newPass(c, 1) }

// newPass is NewPass splitting a BackboneClassifier's chunks among
// min(tensor.Parallelism(), batch) replicas.
func newPass(c Classifier, batch int) *Pass {
	p := &Pass{own: replica{c: c, sc: lendScratch(c)}}
	p.ownArr[0] = &p.own
	p.reps, p.losses = p.ownArr[:], p.lossArr[:]
	p.own.stack()
	p.jobs = make([]foldJob, 0, 2*len(p.own.layers))
	for i, l := range p.own.layers {
		n := len(p.jobs)
		p.jobs = l.folds(p.jobs)
		for j := n; j < len(p.jobs); j++ {
			p.jobs[j].layer, p.jobs[j].j = i, j-n
		}
	}
	slices.SortStableFunc(p.jobs, func(a, b foldJob) int { return b.cost - a.cost })
	if bc, ok := c.(*BackboneClassifier); ok {
		p.replicate(bc, min(tensor.Parallelism(), batch))
	}
	return p
}

// stack puts the stacked layers of r's classifier on r's records.
func (r *replica) stack() {
	if s, ok := r.c.(Stacking); ok {
		r.layers = s.StackedLayers()
		r.recs = make([]rec, len(r.layers))
		for i, l := range r.layers {
			r.recs[i].rep = r
			l.setRec(&r.recs[i])
		}
	}
}

// replicate adds n-1 copies of bc as replicas, each with a goroutine.
// Between dispatches the goroutines spin, yielding the processor, rather
// than park: a parked goroutine's thread took 0.4–0.9 ms to wake on a
// 2-vCPU VM, longer than a fold, and a chunk makes two dispatches. The
// spinning lasts only until Release.
func (p *Pass) replicate(bc *BackboneClassifier, n int) {
	if n <= 1 {
		return
	}
	p.losses = make([]float64, n*foldChunk)
	p.alive.Add(n - 1)
	for k := 1; k < n; k++ {
		sc := scratches.Get().(*Scratch)
		r := &replica{c: bc.replica(sc), sc: sc}
		r.stack()
		p.reps = append(p.reps, r)
		go func() {
			defer p.alive.Done()
			for seen := int64(0); ; {
				g := p.gen.Load()
				if g == seen {
					runtime.Gosched()
					continue
				}
				seen = g
				if p.quit {
					return
				}
				p.do(k)
				p.pending.Add(-1)
			}
		}()
	}
}

// all runs the dispatch on every replica at once, the caller taking
// replica 0.
func (p *Pass) all(folding bool) {
	p.folding = folding
	if len(p.reps) > 1 {
		p.pending.Store(int64(len(p.reps) - 1))
		p.gen.Add(1)
	}
	p.do(0)
	for p.pending.Load() > 0 {
		runtime.Gosched()
	}
}

func (p *Pass) do(k int) {
	if p.folding {
		p.foldShare()
	} else {
		p.runShare(k)
	}
}

// Run adds the cross-entropy gradients of the samples xs[i], i in idx,
// into the classifier's Param.Grad in idx order, each logits gradient
// divided by n (a minibatch mean; 1 for a plain sum). It zeroes nothing
// and moves no weight.
func (p *Pass) Run(xs [][]float64, ys []int, idx []int, n float64) error {
	return p.run(xs, ys, idx, n, 1)
}

// run is Run with each logits gradient divided by div, or else
// multiplied by mul. A Pass of TrainEpoch steps after the last fold.
func (p *Pass) run(xs [][]float64, ys []int, idx []int, div, mul float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("nn: %d samples vs %d labels", len(xs), len(ys))
	}
	for _, i := range idx {
		if i < 0 || i >= len(xs) {
			return fmt.Errorf("nn: batch index %d outside [0,%d)", i, len(xs))
		}
	}
	p.xs, p.ys, p.div, p.mul = xs, ys, div, mul
	for at := 0; at < len(idx); at += len(p.losses) {
		p.idx = idx[at:min(at+len(p.losses), len(idx))]
		p.all(false)
		for _, r := range p.reps {
			if r.err != nil {
				return fmt.Errorf("nn: batch forward: %w", r.err)
			}
		}
		for _, l := range p.losses[:len(p.idx)] {
			p.loss += l
		}
		p.fold(p.adam != nil && at+len(p.idx) == len(idx))
	}
	return nil
}

// runShare runs replica k's contiguous share of the chunk, in place of
// the replica's records of the last; sample s leaves its loss in
// losses[s].
func (p *Pass) runShare(k int) {
	r, n := p.reps[k], len(p.idx)
	for i := range r.recs {
		r.recs[i].n = 0
	}
	r.err = nil
	lo := k * n / len(p.reps)
	for s := lo; s < (k+1)*n/len(p.reps); s++ {
		i := p.idx[s]
		r.slot = s - lo
		logits, err := r.c.Forward(p.xs[i])
		if err != nil {
			r.err = err
			return
		}
		if r.dl == nil || len(r.dl.data) != len(logits) {
			giveBack(r.dl)
			r.dl = borrow(len(logits))
		}
		dl := r.dl.data
		p.losses[s] = CrossEntropy(dl, logits, p.ys[i])
		for j := range dl {
			if p.div != 1 {
				dl[j] /= p.div
			} else {
				dl[j] *= p.mul
			}
		}
		r.c.Backward(dl)
	}
	for i := range r.recs {
		for j := range r.recs[i].ops {
			r.recs[i].ops[j].view(r.recs[i].n)
		}
	}
}

// fold adds the chunk's records into the classifier. With step set, a
// job steps its parameters after its fold, and the parameters without
// a job follow.
func (p *Pass) fold(step bool) {
	p.stepping = step
	if step {
		p.bc1, p.bc2 = p.adam.begin(p.params)
	}
	p.next.Store(0)
	p.all(true)
	if step {
		for _, q := range p.rest {
			p.adam.update(q, p.bc1, p.bc2)
		}
	}
}

// foldShare takes fold jobs until none is left, running each on the
// classifier's own layer over every replica's records in replica
// order, which is sample order.
func (p *Pass) foldShare() {
	for {
		j := int(p.next.Add(1)) - 1
		if j >= len(p.jobs) {
			return
		}
		job := &p.jobs[j]
		for _, r := range p.reps {
			if rc := &r.recs[job.layer]; rc.n > 0 {
				p.own.layers[job.layer].fold(job.j, rc)
			}
		}
		if p.stepping {
			for _, q := range job.params {
				if q != nil {
					p.adam.update(q, p.bc1, p.bc2)
				}
			}
		}
	}
}

// stepWith ends every minibatch of the Pass with an Adam step over
// params, each parameter's update fused after its job's fold.
func (p *Pass) stepWith(adam *Adam, params []*Param) {
	p.adam, p.params = adam, params
	for _, q := range params {
		if !slices.ContainsFunc(p.jobs, func(j foldJob) bool { return j.params[0] == q || j.params[1] == q }) {
			p.rest = append(p.rest, q)
		}
	}
}

// Release stops the replicas' goroutines, takes the records off the
// stacked layers, which accumulate directly again, and gives back
// everything the Pass borrowed, its layers' buffers included.
func (p *Pass) Release() {
	if len(p.reps) > 1 {
		p.quit = true
		p.gen.Add(1)
		p.alive.Wait()
	}
	for _, r := range p.reps {
		r.sc.end(r.c)
		for i, l := range r.layers {
			l.setRec(nil)
			for j := range r.recs[i].ops {
				r.recs[i].ops[j].release()
			}
			r.recs[i].terms.release()
		}
		giveBack(r.dl)
	}
	p.reps = nil
}

// BatchGradients zeroes c's gradients and accumulates one minibatch of
// cross-entropy gradients over the samples at idx, leaving them in
// place for the caller (an optimizer step, or a Taylor importance fold
// that reads g·υ per parameter). The model weights are not updated.
func BatchGradients(c Classifier, xs [][]float64, ys []int, idx []int) error {
	ZeroGrads(c)
	p := newPass(c, len(idx))
	defer p.Release()
	return p.Run(xs, ys, idx, 1)
}

// put records the weight-gradient operands of the sample in flight, in
// ops order.
func (r *rec) put(ms ...*tensor.Matrix) {
	r.n = r.rep.slot + 1
	if r.ops == nil {
		r.ops = r.two[:]
		if len(ms) != len(r.two) {
			r.ops = make([]stack, len(ms))
		}
	}
	for i, m := range ms {
		copy(r.ops[i].sample(r.rep.slot, m.Rows, m.Cols), m.Data)
	}
}

// term returns the sample in flight's row of k importance terms.
func (r *rec) term(k int) []float64 {
	r.n = r.rep.slot + 1
	return r.terms.sample(r.rep.slot, 1, k)
}

// op returns the i-th operand's view of the samples to fold.
func (r *rec) op(i int) *tensor.Matrix { return &r.ops[i].first }

// sample returns slot's rows × cols, borrowing the stack at its first
// use.
func (s *stack) sample(slot, rows, cols int) []float64 {
	if s.lease == nil {
		s.rows, s.cols = rows, cols
		s.lease = borrow(foldChunk * rows * cols)
	} else if rows != s.rows || cols != s.cols {
		panic(fmt.Sprintf("nn: %dx%d operand recorded as %dx%d", rows, cols, s.rows, s.cols))
	}
	n := rows * cols
	return s.lease.data[slot*n : (slot+1)*n]
}

// view points first at the first n samples.
func (s *stack) view(n int) {
	s.first = tensor.Matrix{Rows: n * s.rows, Cols: s.cols, Data: s.lease.data[:n*s.rows*s.cols]}
}

// at returns slot's values of a stack in use.
func (s *stack) at(slot int) []float64 { return s.sample(slot, s.rows, s.cols) }

func (s *stack) release() {
	giveBack(s.lease)
	*s = stack{}
}
