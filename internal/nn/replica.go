package nn

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"acme/internal/tensor"
)

// A BackboneClassifier's minibatch passes (TrainEpoch, AccumulateImportance)
// run data-parallel on a team of replicas: copies of the classifier that
// share every Param with it, since the weights do not move within a
// minibatch, and own their forward and backward scratch. Each replica
// runs the forward pass and the input-gradient chain for a contiguous
// share of the minibatch. Where the classifier would add a weight-gradient
// term into Param.Grad, or an importance term into HeadImportance or
// NeuronImportance, the replica's layer records the term's operands in the
// sample's slot instead (its rec).
//
// After every chunk of a minibatch the fold adds the records into the
// classifier in sample order, through the kernels the serial Backward
// calls. A weight takes one MatMulTransAAcc over all the chunk's rows
// stacked, which visits the rows in the same ascending order, with the
// same zero skips, as one call per sample. So the result is bit-identical
// to the serial pass for any replica count. The cores split the fold by
// parameter, and after a minibatch's last chunk an Adam step updates each
// parameter right after its fold.

// chunk is how many samples a pass runs through the replicas between
// folds (more when there are more replicas). The records are reused from
// chunk to chunk, so it bounds their size, ≈ 1.3 MB for the cloud's
// reference model; any chunking adds the terms in the same order.
const chunk = 8

// team is a classifier's replicas, the records they share and the fold
// jobs that read them. The classifier's first data-parallel pass builds
// it and later passes reuse it; its goroutines live from start to stop,
// within one pass.
type team struct {
	bb       *Backbone // the classifier's backbone and head it was built from
	head     *Linear
	reps     []*replica
	capacity int // samples per chunk
	stacks   []*stack
	jobs     []foldJob // largest first
	loss     []float64 // per slot
	shared   map[any]*rec

	// The pass in flight.
	weights  bool
	xs       [][]float64
	ys       []int
	idx      []int
	scale    float64
	n        int  // samples to fold
	zero     bool // the fold starts a minibatch: weight jobs zero their gradients first
	adam     *Adam
	bc1, bc2 float64
	next     atomic.Int64 // the next fold job to take

	// Dispatch (see start): all publishes fn and bumps gen, and each
	// replica goroutine runs fn once per new gen and counts pending down.
	// runFn and foldFn are built once, so a dispatch allocates nothing.
	runFn, foldFn func(int)
	fn            func(int)
	gen, pending  atomic.Int64
	quit          bool
	alive         sync.WaitGroup
}

// replica is one of a team's copies of the classifier, with the state of
// its sample in flight.
type replica struct {
	*BackboneClassifier
	tape
	dl  []float64 // logits gradient
	err error     // the first failure in the replica's share of a pass
}

// tape is what a replica's layers record by: the slot of the sample in
// flight, and whether weight-gradient operands are recorded at all (an
// importance pass records only the importance terms).
type tape struct {
	slot    int
	weights bool
}

// rec is where a layer records instead of accumulating: on a replica's
// copy, its replica's slot of stacks that every replica's copy of the
// layer shares; on a layer under a Pass (tape nil), its own stacks, one
// sample after another.
type rec struct {
	*tape
	ops   []*stack // weight-gradient operands, in the order the layer puts them
	terms *stack   // importance terms, one row per sample

	n     int       // a Pass's: samples recorded since the last fold
	layer Stackable // a Pass's: the layer the records fold into
	pass  *Pass     // a Pass's: the Pass, whose scratch a fold uses
}

// put records the weight-gradient operands of the sample in flight, in
// ops order.
func (r *rec) put(ms ...*tensor.Matrix) {
	if r.tape == nil {
		r.append(ms)
		return
	}
	if !r.weights {
		return
	}
	for i, m := range ms {
		r.ops[i].put(r.slot, m)
	}
}

// term returns the sample in flight's row of importance terms.
func (r *rec) term() []float64 { return r.terms.sample(r.slot) }

// stack is one recorded operand, rows × cols per sample, for up to a
// team's capacity of samples in slot order. first views the samples of
// the fold in progress as one matrix.
type stack struct {
	data       []float64
	rows, cols int
	first      tensor.Matrix
	lease      *slab // a Pass's stack: data is borrowed
}

func (s *stack) sample(slot int) []float64 {
	n := s.rows * s.cols
	return s.data[slot*n : (slot+1)*n]
}

// view returns the first n samples as one matrix.
func (s *stack) view(n int) *tensor.Matrix {
	s.first = tensor.Matrix{Rows: n * s.rows, Cols: s.cols, Data: s.data[:n*s.rows*s.cols]}
	return &s.first
}

func (s *stack) put(slot int, m *tensor.Matrix) {
	if m.Rows != s.rows || m.Cols != s.cols {
		panic(fmt.Sprintf("nn: %dx%d operand recorded as %dx%d", m.Rows, m.Cols, s.rows, s.cols))
	}
	copy(s.sample(slot), m.Data)
}

// foldJob folds one weight's records, with its bias if it has one, or
// one layer's importance terms (params nil).
type foldJob struct {
	params []*Param
	cost   int // multiply-adds per sample
	fold   func(n int)
}

// replicas returns c's team of n replicas, building one when c has none
// of that size over its current backbone and head.
func (c *BackboneClassifier) replicas(n int) *team {
	t := c.team
	if t == nil || t.bb != c.Backbone || t.head != c.Head || len(t.reps) != n {
		t = newTeam(c, n)
		c.team = t
	}
	return t
}

// trainEpoch is TrainEpoch on n replicas over the shuffled order.
func (c *BackboneClassifier) trainEpoch(n int, opt *Adam, xs [][]float64, ys []int, order []int, batch int) (float64, error) {
	t := c.replicas(n)
	t.start(true)
	defer t.stop()
	params := c.Params()
	var total float64
	for start := 0; start < len(order); start += batch {
		mb := order[start:min(start+batch, len(order))]
		for at := 0; at < len(mb); at += t.capacity {
			idx := mb[at:min(at+t.capacity, len(mb))]
			if err := t.pass(xs, ys, idx, 1/float64(len(mb))); err != nil {
				return 0, err
			}
			for _, l := range t.loss[:len(idx)] {
				total += l
			}
			var step *Adam
			if at+len(idx) == len(mb) {
				step = opt
			}
			t.fold(len(idx), at == 0, step, params)
		}
	}
	return total / float64(len(xs)), nil
}

// importancePasses is AccumulateImportance on n replicas.
func (c *BackboneClassifier) importancePasses(n int, xs [][]float64, ys []int, idx []int) error {
	t := c.replicas(n)
	t.start(false)
	defer t.stop()
	for at := 0; at < len(idx); at += t.capacity {
		part := idx[at:min(at+t.capacity, len(idx))]
		if err := t.pass(xs, ys, part, 1); err != nil {
			return err
		}
		t.fold(len(part), false, nil, nil)
	}
	return nil
}

func newTeam(c *BackboneClassifier, n int) *team {
	capacity := max(chunk, n)
	t := &team{bb: c.Backbone, head: c.Head, capacity: capacity, loss: make([]float64, capacity), shared: map[any]*rec{}}
	for range n {
		r := &replica{dl: make([]float64, c.Head.Out)}
		r.BackboneClassifier = t.replicate(c, &r.tape)
		t.reps = append(t.reps, r)
	}
	t.shared = nil
	sort.SliceStable(t.jobs, func(i, j int) bool { return t.jobs[i].cost > t.jobs[j].cost })
	t.runFn, t.foldFn = t.runShare, t.foldShare
	return t
}

// replicate builds a replica of c whose layers record on tp. The first
// replica's layers make the stacks and fold jobs; the others share them.
func (t *team) replicate(c *BackboneClassifier, tp *tape) *BackboneClassifier {
	b := c.Backbone
	seq, d := b.SeqLen(), b.Cfg.DModel
	rb := &Backbone{
		Cfg:         b.Cfg,
		ActiveDepth: b.ActiveDepth,
		PatchEmbed:  b.PatchEmbed.replica(t.linear(tp, b.PatchEmbed, b.Cfg.NumPatches, -1)),
		CLS:         b.CLS,
		Pos:         b.Pos,
		Blocks:      make([]*Block, len(b.Blocks)),
		FinalLN:     b.FinalLN.replica(t.layerNorm(tp, b.FinalLN, seq, -1)),
		rec: t.on(tp, b, func() *rec {
			tok := t.stack(seq, d)
			t.job(-1, seq*d, func(n int) {
				for s := range n {
					tensor.AddInPlace(b.Pos.Grad, &tensor.Matrix{Rows: seq, Cols: d, Data: tok.sample(s)})
				}
			}, b.Pos)
			t.job(-1, d, func(n int) {
				for s := range n {
					tensor.Axpy(1, tok.sample(s)[:d], b.CLS.Grad.Data)
				}
			}, b.CLS)
			return &rec{ops: []*stack{tok}}
		}),
	}
	for l, blk := range b.Blocks {
		ffn := blk.FFN
		rb.Blocks[l] = &Block{
			LN1:  blk.LN1.replica(t.layerNorm(tp, blk.LN1, seq, l)),
			Attn: blk.Attn.replica(t.attention(tp, blk.Attn, seq, l)),
			LN2:  blk.LN2.replica(t.layerNorm(tp, blk.LN2, seq, l)),
			FFN:  ffn.replica(t.neurons(tp, ffn, l), t.linear(tp, ffn.FC1, seq, l), t.linear(tp, ffn.FC2, seq, l)),
		}
	}
	return &BackboneClassifier{Backbone: rb, Head: c.Head.replica(t.linear(tp, c.Head, 1, -1))}
}

// on returns the rec on tp of the layer key, whose stacks and fold jobs mk
// makes the first time.
func (t *team) on(tp *tape, key any, mk func() *rec) *rec {
	r, ok := t.shared[key]
	if !ok {
		r = mk()
		t.shared[key] = r
	}
	return &rec{tape: tp, ops: r.ops, terms: r.terms}
}

func (t *team) stack(rows, cols int) *stack {
	s := &stack{data: make([]float64, t.capacity*rows*cols), rows: rows, cols: cols}
	t.stacks = append(t.stacks, s)
	return s
}

// job adds a fold job; a job of block ≥ 0 folds only while that block is
// active.
func (t *team) job(block, cost int, fold func(n int), params ...*Param) {
	if block >= 0 {
		inner := fold
		fold = func(n int) {
			if block < t.bb.ActiveDepth {
				inner(n)
			}
		}
	}
	t.jobs = append(t.jobs, foldJob{params: params, cost: cost, fold: fold})
}

// linear: x and dy per sample, one job for W and B.
func (t *team) linear(tp *tape, l *Linear, rows, block int) *rec {
	return t.on(tp, l, func() *rec {
		x, dy := t.stack(rows, l.In), t.stack(rows, l.Out)
		t.job(block, rows*l.In*l.Out, func(int) { l.addGrads(&x.first, &dy.first) }, l.W, l.B)
		return &rec{ops: []*stack{x, dy}}
	})
}

// layerNorm: x̂ and dy per sample, one job for gain and bias.
func (t *team) layerNorm(tp *tape, ln *LayerNorm, rows, block int) *rec {
	return t.on(tp, ln, func() *rec {
		xhat, dy := t.stack(rows, ln.Dim), t.stack(rows, ln.Dim)
		t.job(block, rows*ln.Dim, func(int) { ln.addGrads(&xhat.first, &dy.first) }, ln.Gain, ln.Bias)
		return &rec{ops: []*stack{xhat, dy}}
	})
}

// attention: x, concat, dq, dk, dv and dy per sample, one job for each of
// Wq, Wk, Wv and (with Bo) Wo, and the head terms.
func (t *team) attention(tp *tape, m *MHSA, rows, block int) *rec {
	return t.on(tp, m, func() *rec {
		ops := make([]*stack, 6)
		for i := range ops {
			ops[i] = t.stack(rows, m.DModel)
		}
		x, concat, dy := ops[0], ops[1], ops[5]
		cost := rows * m.DModel * m.DModel
		for i, w := range []*Param{m.Wq, m.Wk, m.Wv} {
			dproj := ops[2+i]
			t.job(block, cost, func(int) { tensor.MatMulTransAAcc(w.Grad, &x.first, &dproj.first) }, w)
		}
		t.job(block, cost, func(int) {
			tensor.MatMulTransAAcc(m.Wo.Grad, &concat.first, &dy.first)
			dy.first.SumRowsInto(m.Bo.Grad.Data)
		}, m.Wo, m.Bo)
		heads := t.stack(1, m.NumHeads)
		t.job(block, 0, func(n int) {
			if !m.RecordImportance {
				return
			}
			for s := range n {
				terms := heads.sample(s)
				for h, on := range m.HeadMask {
					if on {
						m.HeadImportance[h] += terms[h]
					}
				}
			}
		})
		return &rec{ops: ops, terms: heads}
	})
}

// neurons: the MLP's neuron terms.
func (t *team) neurons(tp *tape, m *MLP, block int) *rec {
	return t.on(tp, m, func() *rec {
		terms := t.stack(1, m.Hidden)
		t.job(block, 0, func(n int) {
			if !m.RecordImportance {
				return
			}
			for s := range n {
				for j, v := range terms.sample(s) {
					m.NeuronImportance[j] += v
				}
			}
		})
		return &rec{terms: terms}
	})
}

// start readies the replicas for passes that record weight gradients
// (weights) or importance terms only, and starts a goroutine for every
// replica after the first.
//
// Between dispatches the goroutines spin, yielding the processor, rather
// than park: a parked goroutine's thread took 0.4–0.9 ms to wake on a
// 2-vCPU VM, longer than a fold, and a pass makes two dispatches per
// minibatch. The spinning lasts only until stop, at the end of the pass.
func (t *team) start(weights bool) {
	t.weights = weights
	for _, r := range t.reps {
		r.weights = weights
		rb := r.Backbone
		rb.ActiveDepth = t.bb.ActiveDepth
		for l, blk := range rb.Blocks {
			blk.Attn.RecordImportance = t.bb.Blocks[l].Attn.RecordImportance
			blk.FFN.RecordImportance = t.bb.Blocks[l].FFN.RecordImportance
		}
	}
	t.quit = false
	t.alive.Add(len(t.reps) - 1)
	for k := 1; k < len(t.reps); k++ {
		seen := t.gen.Load()
		go func() {
			defer t.alive.Done()
			for {
				g := t.gen.Load()
				if g == seen {
					runtime.Gosched()
					continue
				}
				seen = g
				if t.quit {
					return
				}
				t.fn(k)
				t.pending.Add(-1)
			}
		}()
	}
}

// stop ends the goroutines of start and waits for them to exit.
func (t *team) stop() {
	t.quit = true
	t.gen.Add(1)
	t.alive.Wait()
}

// all runs fn for every replica at once, the caller taking replica 0.
func (t *team) all(fn func(int)) {
	t.fn = fn
	t.pending.Store(int64(len(t.reps) - 1))
	t.gen.Add(1)
	fn(0)
	for t.pending.Load() > 0 {
		runtime.Gosched()
	}
}

// pass runs the samples xs[i], i in idx (at most capacity of them),
// through the replicas: replica k takes the k-th contiguous share, and
// slot s records idx[s]. Each logits gradient is scaled by scale. It
// returns the error of the first failing sample.
func (t *team) pass(xs [][]float64, ys []int, idx []int, scale float64) error {
	t.xs, t.ys, t.idx, t.scale = xs, ys, idx, scale
	t.all(t.runFn)
	for _, r := range t.reps {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

func (t *team) runShare(k int) {
	r, n := t.reps[k], len(t.idx)
	r.err = nil
	for s := k * n / len(t.reps); s < (k+1)*n/len(t.reps); s++ {
		i := t.idx[s]
		r.slot = s
		logits, err := r.Forward(t.xs[i])
		if err != nil {
			r.err = err
			return
		}
		t.loss[s] = CrossEntropy(r.dl, logits, t.ys[i])
		scaleVec(r.dl, t.scale)
		r.Backward(r.dl)
	}
}

// fold adds the records of the pass's n samples into the classifier, the
// cores taking jobs largest first. A weight job zeroes its parameters'
// gradients first when zero is set and, under adam, steps them after;
// params is the classifier's list, for the step's bookkeeping.
func (t *team) fold(n int, zero bool, adam *Adam, params []*Param) {
	for _, s := range t.stacks {
		s.view(n)
	}
	t.n, t.zero, t.adam = n, zero, adam
	if adam != nil {
		t.bc1, t.bc2 = adam.begin(params)
	}
	t.next.Store(0)
	t.all(t.foldFn)
}

func (t *team) foldShare(int) {
	for {
		j := int(t.next.Add(1)) - 1
		if j >= len(t.jobs) {
			return
		}
		job := &t.jobs[j]
		if job.params != nil && !t.weights {
			continue
		}
		if t.zero {
			for _, p := range job.params {
				p.ZeroGrad()
			}
		}
		job.fold(t.n)
		if t.adam != nil {
			for _, p := range job.params {
				t.adam.update(p, t.bc1, t.bc2)
			}
		}
	}
}
