package nas

import (
	"fmt"
	"math"
	"math/rand"

	"acme/internal/nn"
)

// Controller is the edge server's LSTM policy over header architectures
// (§III-C2): it emits a sequence of 4B decisions — Î₁, Î₂, Ô₁, Ô₂ per
// block — each conditioned on the running hidden state, and is trained
// with REINFORCE against a moving-average baseline (Eq. 15).
type Controller struct {
	Blocks    int
	HiddenDim int
	EmbedDim  int
	maxIn     int
	ops       []OpKind

	wx, wh, bias *nn.Param // LSTM cell: embed→4h, h→4h, 1×4h
	startEmb     *nn.Param // 1×embed
	inEmb        *nn.Param // maxIn × embed
	opEmb        *nn.Param // NumOpKinds × embed
	inHeadW      *nn.Param // hidden × maxIn
	inHeadB      *nn.Param
	opHeadW      *nn.Param // hidden × NumOpKinds
	opHeadB      *nn.Param

	Baseline      float64
	BaselineDecay float64
	baselineInit  bool
	// EntropyWeight adds an entropy bonus to the REINFORCE objective,
	// preventing premature policy collapse (as in ENAS).
	EntropyWeight float64

	opt *nn.Adam
	rng *rand.Rand

	// tape lends the buffers of taped draws and of Update's backprop;
	// Update releases it. A tape-free draw runs on work, its steps
	// alternating between the two, and z holds a step's gate
	// pre-activations. zeros is the initial hidden and cell state.
	tape     nn.Lease
	work     [2]ctrlStep
	z, zeros []float64
}

// NewControllerWithOps builds a controller whose op decisions range
// over the given operation set (the paper's "various NAS search
// spaces"), DefaultOpSet when ops is empty. hiddenDim follows the
// paper's single-layer LSTM with 100 hidden units when set to 0.
func NewControllerWithOps(blocks, hiddenDim int, lr float64, ops []OpKind, rng *rand.Rand) *Controller {
	if hiddenDim <= 0 {
		hiddenDim = 100
	}
	if len(ops) == 0 {
		ops = DefaultOpSet()
	}
	numOps := len(ops)
	embed := 32
	maxIn := InputSetSize(blocks - 1)
	c := &Controller{
		Blocks:        blocks,
		HiddenDim:     hiddenDim,
		EmbedDim:      embed,
		maxIn:         maxIn,
		ops:           append([]OpKind(nil), ops...),
		wx:            nn.NewParam("ctrl.wx", embed, 4*hiddenDim),
		wh:            nn.NewParam("ctrl.wh", hiddenDim, 4*hiddenDim),
		bias:          nn.NewParam("ctrl.b", 1, 4*hiddenDim),
		startEmb:      nn.NewParam("ctrl.start", 1, embed),
		inEmb:         nn.NewParam("ctrl.inemb", maxIn, embed),
		opEmb:         nn.NewParam("ctrl.opemb", numOps, embed),
		inHeadW:       nn.NewParam("ctrl.inhead.w", hiddenDim, maxIn),
		inHeadB:       nn.NewParam("ctrl.inhead.b", 1, maxIn),
		opHeadW:       nn.NewParam("ctrl.ophead.w", hiddenDim, numOps),
		opHeadB:       nn.NewParam("ctrl.ophead.b", 1, numOps),
		BaselineDecay: 0.7,
		EntropyWeight: 0.05,
		opt:           nn.NewAdam(lr),
		rng:           rng,
	}
	c.wx.InitXavier(rng, embed, 4*hiddenDim)
	c.wh.InitXavier(rng, hiddenDim, 4*hiddenDim)
	c.startEmb.Value.Randomize(rng, 0.1)
	c.inEmb.Value.Randomize(rng, 0.1)
	c.opEmb.Value.Randomize(rng, 0.1)
	c.inHeadW.InitXavier(rng, hiddenDim, maxIn)
	c.opHeadW.InitXavier(rng, hiddenDim, numOps)
	for i := range c.work {
		c.cut(&c.work[i], nil, max(maxIn, numOps))
	}
	c.z, c.zeros = make([]float64, 4*hiddenDim), make([]float64, hiddenDim)
	return c
}

// Params returns the controller parameters θᴸˢᵀᴹ.
func (c *Controller) Params() []*nn.Param {
	return []*nn.Param{
		c.wx, c.wh, c.bias, c.startEmb, c.inEmb, c.opEmb,
		c.inHeadW, c.inHeadB, c.opHeadW, c.opHeadB,
	}
}

// ctrlStep caches one decision step for BPTT. x, hprev and cprev are
// read-only views: an embedding row, or the previous step's h and cell.
type ctrlStep struct {
	x, hprev, cprev []float64
	gi, gf, gg, go_ []float64
	cell, tanhc, h  []float64
	isOp            bool
	valid           int
	probs           []float64
	action          int
	prevAction      int // embedding bookkeeping: which row x came from
	prevIsOp        bool
	prevIsStart     bool
}

// cut points step's cached vectors at buffers cut from l (allocated for
// a nil l), with room for n probabilities.
func (c *Controller) cut(step *ctrlStep, l *nn.Lease, n int) {
	H := c.HiddenDim
	buf := l.F64s(7*H + n)
	v := func() []float64 { s := buf[:H:H]; buf = buf[H:]; return s }
	step.gi, step.gf, step.gg, step.go_ = v(), v(), v(), v()
	step.cell, step.tanhc, step.h = v(), v(), v()
	step.probs = buf
}

// Trajectory is one sampled architecture with, for a taped draw, the
// caches needed to compute its policy gradient.
type Trajectory struct {
	Arch  Architecture
	steps []ctrlStep
	// LogProb is Σ log π(aₜ) of the sample.
	LogProb float64
}

// Sample draws one architecture from the current policy. A taped draw
// records its steps for Update, in buffers the next Update gives back;
// a tape-free one runs on the controller's own and allocates only its
// Architecture. Both consume the same random numbers.
func (c *Controller) Sample(taped bool) Trajectory {
	traj := Trajectory{Arch: Architecture{Blocks: make([]BlockGene, c.Blocks)}}
	if taped {
		traj.steps = make([]ctrlStep, 4*c.Blocks)
	}
	h, cc, x := c.zeros, c.zeros, c.startEmb.Value.Data
	prevIsStart, prevIsOp, prevAction := true, false, 0
	for b := 0; b < c.Blocks; b++ {
		var actions [4]int
		for d := range actions {
			isOp := d >= 2 // Î₁, Î₂, then Ô₁, Ô₂
			headW, emb, valid := c.inHeadW, c.inEmb, InputSetSize(b)
			if isOp {
				headW, emb, valid = c.opHeadW, c.opEmb, len(c.ops)
			}
			n := headW.Value.Cols
			var step *ctrlStep
			if taped {
				step = &traj.steps[4*b+d]
				c.cut(step, &c.tape, n)
			} else {
				step = &c.work[d%2]
				step.probs = step.probs[:n]
			}
			step.x, step.hprev, step.cprev = x, h, cc
			step.isOp, step.valid = isOp, valid
			step.prevAction, step.prevIsOp, step.prevIsStart = prevAction, prevIsOp, prevIsStart
			h, cc = c.cellForward(step)
			c.headForward(step)
			a := sampleFrom(step.probs, c.rng)
			step.action = a
			traj.LogProb += math.Log(step.probs[a] + 1e-12)
			actions[d] = a

			// Next input embedding.
			prevIsStart, prevIsOp, prevAction = false, isOp, a
			x = embRow(emb, a)
		}
		traj.Arch.Blocks[b] = BlockGene{
			In1: actions[0], In2: actions[1],
			Op1: c.ops[actions[2]], Op2: c.ops[actions[3]],
		}
	}
	return traj
}

// Update applies one REINFORCE step over the sampled trajectories with
// their rewards (validation accuracies), using the moving-average
// baseline to reduce variance. Only taped draws carry a gradient. It
// gives back every buffer the tape lent, so no trajectory drawn before
// it may be passed to a later Update.
func (c *Controller) Update(trajs []Trajectory, rewards []float64) error {
	defer c.tape.Release()
	if len(trajs) != len(rewards) {
		return fmt.Errorf("nas: %d trajectories vs %d rewards", len(trajs), len(rewards))
	}
	if len(trajs) == 0 {
		return nil
	}
	var meanR float64
	for _, r := range rewards {
		meanR += r
	}
	meanR /= float64(len(rewards))
	if !c.baselineInit {
		c.Baseline = meanR
		c.baselineInit = true
	} else {
		c.Baseline = c.BaselineDecay*c.Baseline + (1-c.BaselineDecay)*meanR
	}

	for _, p := range c.Params() {
		p.ZeroGrad()
	}
	H, t := c.HiddenDim, &c.tape
	g := bptt{
		dh: t.F64s(H), dc: t.F64s(H), dhprev: t.F64s(H), dcprev: t.F64s(H),
		dz: t.F64s(4 * H), dx: t.F64s(c.EmbedDim), dlogits: t.F64s(max(c.maxIn, len(c.ops))),
	}
	scale := 1 / float64(len(trajs))
	for ti, traj := range trajs {
		adv := rewards[ti] - c.Baseline
		c.backprop(traj, adv*scale, c.EntropyWeight*scale, &g)
	}
	c.opt.Step(c.Params())
	return nil
}

// bptt is backprop's working memory, cut from the tape once per Update:
// the gradients at a step's h and c and at its predecessor's (swapped
// after every step), and those at the gate pre-activations, the input
// and the logits.
type bptt struct{ dh, dc, dhprev, dcprev, dz, dx, dlogits []float64 }

// backprop accumulates the policy gradient of one trajectory: the loss
// is -adv·Σ log π(aₜ) - entScale·H(π), so dlogits = adv·(probs − onehot)
// plus the entropy-bonus gradient.
func (c *Controller) backprop(traj Trajectory, adv, entScale float64, g *bptt) {
	clear(g.dh)
	clear(g.dc)
	for t := len(traj.steps) - 1; t >= 0; t-- {
		step := &traj.steps[t]
		// Head gradient.
		headW, headB := c.opHeadW, c.opHeadB
		if !step.isOp {
			headW, headB = c.inHeadW, c.inHeadB
		}
		n := len(step.probs)
		dlogits, dh := g.dlogits[:n], g.dh
		clear(dlogits)
		for j := 0; j < step.valid; j++ {
			dlogits[j] = adv * step.probs[j]
		}
		dlogits[step.action] -= adv
		if entScale > 0 {
			// Gradient of -w·H(π) wrt logits: w·p∘(log p + H).
			var ent float64
			for j := 0; j < step.valid; j++ {
				if p := step.probs[j]; p > 0 {
					ent -= p * math.Log(p)
				}
			}
			for j := 0; j < step.valid; j++ {
				if p := step.probs[j]; p > 0 {
					dlogits[j] += entScale * p * (math.Log(p) + ent)
				}
			}
		}
		// dW += hᵀ·dlogits ; dB += dlogits ; dh += dlogits·Wᵀ
		for i := 0; i < c.HiddenDim; i++ {
			hi := step.h[i]
			row := headW.Value.Data[i*n : (i+1)*n]
			grow := headW.Grad.Data[i*n : (i+1)*n]
			var s float64
			for j := 0; j < n; j++ {
				grow[j] += hi * dlogits[j]
				s += dlogits[j] * row[j]
			}
			dh[i] += s
		}
		for j := 0; j < n; j++ {
			headB.Grad.Data[j] += dlogits[j]
		}

		c.cellBackward(step, g)

		// Route dx into the embedding that produced x.
		switch {
		case step.prevIsStart:
			tensorAxpy(1, g.dx, c.startEmb.Grad.Data)
		case step.prevIsOp:
			tensorAxpy(1, g.dx, embGradRow(c.opEmb, step.prevAction))
		default:
			tensorAxpy(1, g.dx, embGradRow(c.inEmb, step.prevAction))
		}
		g.dh, g.dhprev = g.dhprev, g.dh
		g.dc, g.dcprev = g.dcprev, g.dc
	}
}

// cellForward runs the LSTM cell, caching gates into step, and returns
// (h, c).
func (c *Controller) cellForward(step *ctrlStep) (h, cell []float64) {
	H := c.HiddenDim
	z := c.z
	copy(z, c.bias.Value.Data)
	for i, xv := range step.x {
		if xv == 0 {
			continue
		}
		row := c.wx.Value.Data[i*4*H : (i+1)*4*H]
		tensorAxpy(xv, row, z)
	}
	for i, hv := range step.hprev {
		if hv == 0 {
			continue
		}
		row := c.wh.Value.Data[i*4*H : (i+1)*4*H]
		tensorAxpy(hv, row, z)
	}
	gi, gf, gg, go_ := step.gi, step.gf, step.gg, step.go_
	cell, tanhc, h := step.cell, step.tanhc, step.h
	for j := 0; j < H; j++ {
		gi[j] = nn.Sigmoid(z[j])
		gf[j] = nn.Sigmoid(z[H+j])
		gg[j] = math.Tanh(z[2*H+j])
		go_[j] = nn.Sigmoid(z[3*H+j])
		cell[j] = gf[j]*step.cprev[j] + gi[j]*gg[j]
		tanhc[j] = math.Tanh(cell[j])
		h[j] = go_[j] * tanhc[j]
	}
	return h, cell
}

// cellBackward backpropagates (g.dh, g.dc) through the cached cell step
// into g.dx, g.dhprev and g.dcprev, accumulating parameter gradients.
func (c *Controller) cellBackward(step *ctrlStep, g *bptt) {
	H := c.HiddenDim
	dh, dc, dz := g.dh, g.dc, g.dz
	for j := 0; j < H; j++ {
		do := dh[j] * step.tanhc[j]
		dcell := dc[j] + dh[j]*step.go_[j]*(1-step.tanhc[j]*step.tanhc[j])
		di := dcell * step.gg[j]
		dg := dcell * step.gi[j]
		df := dcell * step.cprev[j]
		g.dcprev[j] = dcell * step.gf[j]
		dz[j] = di * step.gi[j] * (1 - step.gi[j])
		dz[H+j] = df * step.gf[j] * (1 - step.gf[j])
		dz[2*H+j] = dg * (1 - step.gg[j]*step.gg[j])
		dz[3*H+j] = do * step.go_[j] * (1 - step.go_[j])
	}
	// Parameter grads and input grads.
	for i, xv := range step.x {
		grow := c.wx.Grad.Data[i*4*H : (i+1)*4*H]
		row := c.wx.Value.Data[i*4*H : (i+1)*4*H]
		var s float64
		for j := range dz {
			grow[j] += xv * dz[j]
			s += dz[j] * row[j]
		}
		g.dx[i] = s
	}
	for i, hv := range step.hprev {
		grow := c.wh.Grad.Data[i*4*H : (i+1)*4*H]
		row := c.wh.Value.Data[i*4*H : (i+1)*4*H]
		var s float64
		for j := range dz {
			grow[j] += hv * dz[j]
			s += dz[j] * row[j]
		}
		g.dhprev[i] = s
	}
	tensorAxpy(1, dz, c.bias.Grad.Data)
}

// headForward computes the step's logits from its hidden state and
// turns them into their masked softmax, all in step.probs.
func (c *Controller) headForward(step *ctrlStep) {
	headW, headB := c.opHeadW, c.opHeadB
	if !step.isOp {
		headW, headB = c.inHeadW, c.inHeadB
	}
	n := headW.Value.Cols
	logits := step.probs
	copy(logits, headB.Value.Data)
	for i, hv := range step.h {
		if hv == 0 {
			continue
		}
		row := headW.Value.Data[i*n : (i+1)*n]
		tensorAxpy(hv, row, logits)
	}
	maskedSoftmax(logits, step.valid)
}

// maskedSoftmax turns logits into the softmax of their first valid
// entries, in place; the rest become 0.
func maskedSoftmax(logits []float64, valid int) {
	maxv := math.Inf(-1)
	for j := 0; j < valid; j++ {
		if logits[j] > maxv {
			maxv = logits[j]
		}
	}
	var sum float64
	for j := 0; j < valid; j++ {
		e := math.Exp(logits[j] - maxv)
		logits[j] = e
		sum += e
	}
	for j := 0; j < valid; j++ {
		logits[j] /= sum
	}
	clear(logits[valid:])
}

func sampleFrom(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	var cum float64
	last := 0
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		cum += p
		last = i
		if r < cum {
			return i
		}
	}
	return last
}

// embRow is a view of row of p's embedding table.
func embRow(p *nn.Param, row int) []float64 {
	n := p.Value.Cols
	return p.Value.Data[row*n : (row+1)*n : (row+1)*n]
}

func embGradRow(p *nn.Param, row int) []float64 {
	return p.Grad.Data[row*p.Grad.Cols : (row+1)*p.Grad.Cols]
}

func tensorAxpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}
