package nas

import (
	"fmt"
	"math/rand"

	"acme/internal/nn"
	"acme/internal/tensor"
)

// HeaderConfig sizes a header model.
type HeaderConfig struct {
	Blocks     int // B: blocks per underlying module
	Repeats    int // U: module repetitions
	DModel     int // token width (matches the backbone)
	Hidden     int // classifier MLP hidden width
	NumClasses int
	// TrainBackbone propagates gradients into the backbone (Phase 2-1
	// behaviour; Phase 2-2 freezes it).
	TrainBackbone bool
}

// Validate reports configuration errors.
func (c HeaderConfig) Validate() error {
	if c.Blocks <= 0 || c.Repeats <= 0 || c.DModel <= 0 || c.Hidden <= 0 || c.NumClasses <= 0 {
		return fmt.Errorf("nas: non-positive header config %+v", c)
	}
	return nil
}

// bankKey identifies a shared op instance: module repeat, block, slot
// (0 or 1), and operation kind.
type bankKey struct {
	U, B, Slot int
	Kind       OpKind
}

// OpBank holds the shared child-model parameters ωs of ENAS-style
// search: every (repeat, block, slot, kind) position has exactly one op
// instance, reused by every sampled architecture that picks that kind at
// that position.
type OpBank struct {
	Dim int
	rng *rand.Rand
	ops map[bankKey]nn.SeqOp
}

// NewOpBank returns an empty bank for headers of token width dim.
func NewOpBank(dim int, rng *rand.Rand) *OpBank {
	return &OpBank{Dim: dim, rng: rng, ops: make(map[bankKey]nn.SeqOp)}
}

// Get returns (lazily creating) the shared op at the given position.
func (bk *OpBank) Get(u, b, slot int, kind OpKind) nn.SeqOp {
	key := bankKey{U: u, B: b, Slot: slot, Kind: kind}
	if op, ok := bk.ops[key]; ok {
		return op
	}
	name := fmt.Sprintf("bank.u%d.b%d.s%d.%v", u, b, slot, kind)
	op := newOp(kind, name, bk.Dim, bk.rng)
	bk.ops[key] = op
	return op
}

// HeaderModel is a concrete header: the DAG of B blocks repeated U
// times over (backbone output, penultimate output), followed by token
// mean-pooling, concatenation with the [CLS] representation, and a
// two-layer MLP classifier (Fig. 5).
//
// Implements nn.Classifier over raw samples by running the attached
// backbone first.
type HeaderModel struct {
	Cfg      HeaderConfig
	Arch     Architecture
	Backbone *nn.Backbone

	// ops[u][b][slot] are the operation instances (possibly shared with
	// an OpBank during search, or privately owned after Materialize).
	ops [][][2]nn.SeqOp
	// opMasks[u][b][slot] is an optional per-channel output mask for
	// parametric ops, populated by ApplyImportance; maskedCols lists its
	// switched-off channels (see indexMasks).
	opMasks    [][][2][]bool
	maskedCols [][][2][]int

	FC1        *nn.Linear
	FC2        *nn.Linear
	act        nn.GELU
	HiddenMask []bool

	// loose lists a module's loose-end nodes: the block outputs no later
	// block reads, whose mean is the module output. A function of Arch
	// alone, so the same for every repeat.
	loose []int

	// Forward state, kept in reused buffers (the tensor.Ensure idiom of
	// nn.Linear), which an nn.Pass or nn.Evaluate lends for the call
	// (sc, see UseScratch): after the first sample a forward/backward
	// pair allocates nothing here.
	nodes      [][]*tensor.Matrix // per repeat: 2 inputs + block outputs
	blockOuts  [][]tensor.Matrix  // per repeat: what nodes[u][2:] point at
	moduleOuts []tensor.Matrix
	pooled     tensor.Matrix
	seqLen     int
	sc         *nn.Scratch

	stacked []nn.Stackable // StackedLayers, listed on first use
	params  []*nn.Param    // Params, listed on first use

	// Backward scratch.
	dl           tensor.Matrix
	dModule      []gradSlot
	nodeGrads    []gradSlot
	masked       [2]tensor.Matrix // masked copies of a block's gradient
	dFinal, dPen tensor.Matrix
}

var _ nn.Classifier = (*HeaderModel)(nil)

// BuildShared assembles a header over bank-shared ops (used during
// search, where thousands of candidate headers reuse one weight set).
func BuildShared(cfg HeaderConfig, arch Architecture, backbone *nn.Backbone, bank *OpBank, fc1, fc2 *nn.Linear) (*HeaderModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if len(arch.Blocks) != cfg.Blocks {
		return nil, fmt.Errorf("nas: arch has %d blocks, config %d", len(arch.Blocks), cfg.Blocks)
	}
	h := &HeaderModel{Cfg: cfg, Arch: arch, Backbone: backbone, FC1: fc1, FC2: fc2, loose: looseEnds(arch)}
	h.ops = make([][][2]nn.SeqOp, cfg.Repeats)
	h.opMasks = make([][][2][]bool, cfg.Repeats)
	h.maskedCols = make([][][2][]int, cfg.Repeats)
	for u := 0; u < cfg.Repeats; u++ {
		h.ops[u] = make([][2]nn.SeqOp, cfg.Blocks)
		h.opMasks[u] = make([][2][]bool, cfg.Blocks)
		h.maskedCols[u] = make([][2][]int, cfg.Blocks)
		for b, gene := range arch.Blocks {
			h.ops[u][b][0] = bank.Get(u, b, 0, gene.Op1)
			h.ops[u][b][1] = bank.Get(u, b, 1, gene.Op2)
		}
	}
	h.HiddenMask = make([]bool, cfg.Hidden)
	for i := range h.HiddenMask {
		h.HiddenMask[i] = true
	}
	return h, nil
}

// NewHeaderModel builds a header with privately owned, freshly
// initialized operations and classifier — or, for a nil rng, a received
// one (nn.Param) whose values the caller fills in.
func NewHeaderModel(cfg HeaderConfig, arch Architecture, backbone *nn.Backbone, rng *rand.Rand) (*HeaderModel, error) {
	bank := NewOpBank(cfg.DModel, rng)
	fc1 := nn.NewLinear("header.fc1", 2*cfg.DModel, cfg.Hidden, rng)
	fc2 := nn.NewLinear("header.fc2", cfg.Hidden, cfg.NumClasses, rng)
	return BuildShared(cfg, arch, backbone, bank, fc1, fc2)
}

// Clone returns a deep copy of the header (ops, classifier, masks)
// attached to the given backbone. Used when the edge server distributes
// θs to its devices.
func (h *HeaderModel) Clone(backbone *nn.Backbone) *HeaderModel {
	out := &HeaderModel{
		Cfg:      h.Cfg,
		Arch:     h.Arch,
		Backbone: backbone,
		FC1:      cloneLinear(h.FC1),
		FC2:      cloneLinear(h.FC2),
		loose:    h.loose,
	}
	out.HiddenMask = append([]bool(nil), h.HiddenMask...)
	out.ops = make([][][2]nn.SeqOp, len(h.ops))
	out.opMasks = make([][][2][]bool, len(h.ops))
	out.maskedCols = make([][][2][]int, len(h.ops))
	for u := range h.ops {
		out.ops[u] = make([][2]nn.SeqOp, len(h.ops[u]))
		out.opMasks[u] = make([][2][]bool, len(h.ops[u]))
		out.maskedCols[u] = make([][2][]int, len(h.ops[u]))
		for b := range h.ops[u] {
			for s := 0; s < 2; s++ {
				out.ops[u][b][s] = cloneOp(h.ops[u][b][s], h.Cfg.DModel)
				if m := h.opMasks[u][b][s]; m != nil {
					out.opMasks[u][b][s] = append([]bool(nil), m...)
				}
			}
		}
	}
	out.indexMasks()
	return out
}

// HeaderMasks snapshots a header's pruning state: the classifier hidden
// mask and the per-(repeat, block, slot) channel masks (nil = unmasked).
type HeaderMasks struct {
	Hidden []bool
	Ops    [][][2][]bool
}

// ExportMasks returns a deep copy of the current pruning masks.
func (h *HeaderModel) ExportMasks() HeaderMasks {
	m := HeaderMasks{Hidden: append([]bool(nil), h.HiddenMask...)}
	m.Ops = make([][][2][]bool, len(h.opMasks))
	for u := range h.opMasks {
		m.Ops[u] = make([][2][]bool, len(h.opMasks[u]))
		for b := range h.opMasks[u] {
			for s := 0; s < 2; s++ {
				if src := h.opMasks[u][b][s]; src != nil {
					m.Ops[u][b][s] = append([]bool(nil), src...)
				}
			}
		}
	}
	return m
}

// ImportMasks restores pruning masks exported by ExportMasks.
func (h *HeaderModel) ImportMasks(m HeaderMasks) error {
	if len(m.Hidden) != len(h.HiddenMask) {
		return fmt.Errorf("nas: hidden mask size %d want %d", len(m.Hidden), len(h.HiddenMask))
	}
	copy(h.HiddenMask, m.Hidden)
	if len(m.Ops) != len(h.opMasks) {
		return fmt.Errorf("nas: op mask repeats %d want %d", len(m.Ops), len(h.opMasks))
	}
	for u := range m.Ops {
		if len(m.Ops[u]) != len(h.opMasks[u]) {
			return fmt.Errorf("nas: op mask blocks %d want %d at repeat %d", len(m.Ops[u]), len(h.opMasks[u]), u)
		}
		for b := range m.Ops[u] {
			for s := 0; s < 2; s++ {
				if src := m.Ops[u][b][s]; src != nil {
					h.opMasks[u][b][s] = append([]bool(nil), src...)
				} else {
					h.opMasks[u][b][s] = nil
				}
			}
		}
	}
	h.indexMasks()
	return nil
}

// Materialize returns a privately owned copy of a bank-shared header,
// so the search result can be shipped to devices without aliasing the
// bank.
func (h *HeaderModel) Materialize() *HeaderModel { return h.Clone(h.Backbone) }

// Forward implements nn.Classifier.
func (h *HeaderModel) Forward(x []float64) ([]float64, error) {
	final, err := h.Backbone.Forward(x)
	if err != nil {
		return nil, err
	}
	pen := h.Backbone.Penultimate()
	return h.forwardFromFeatures(final, pen), nil
}

// forwardFromFeatures runs the header DAG and classifier given the
// backbone representations. The returned logits live in a reused
// buffer, valid until the next forward pass.
func (h *HeaderModel) forwardFromFeatures(final, pen *tensor.Matrix) []float64 {
	U, B, d := h.Cfg.Repeats, h.Cfg.Blocks, h.Cfg.DModel
	seq := final.Rows
	h.seqLen = seq
	if h.nodes == nil {
		h.nodes = make([][]*tensor.Matrix, U)
		h.blockOuts = make([][]tensor.Matrix, U)
		for u := range h.nodes {
			h.nodes[u] = make([]*tensor.Matrix, 2+B)
			h.blockOuts[u] = make([]tensor.Matrix, B)
			for b := range h.blockOuts[u] {
				h.nodes[u][2+b] = &h.blockOuts[u][b]
			}
		}
		h.moduleOuts = make([]tensor.Matrix, U)
	}
	for u := 0; u < U; u++ {
		nodes := h.nodes[u]
		nodes[0], nodes[1] = h.moduleInputs(u, final, pen)
		for b, gene := range h.Arch.Blocks {
			y1 := h.ops[u][b][0].Forward(nodes[gene.In1])
			y2 := h.ops[u][b][1].Forward(nodes[gene.In2])
			zeroCols(y1, h.maskedCols[u][b][0])
			zeroCols(y2, h.maskedCols[u][b][1])
			tensor.AddInto(h.sc.Ensure(nodes[2+b], seq, d), y1, y2)
		}
		// Module output: mean of the loose-end blocks.
		out := h.sc.Zeroed(&h.moduleOuts[u], seq, d)
		for _, idx := range h.loose {
			tensor.AddInPlace(out, nodes[idx])
		}
		out.Scale(1 / float64(len(h.loose)))
	}

	// Token mean-pool of the last module output, concatenated with the
	// backbone [CLS] representation.
	pooled := h.sc.Ensure(&h.pooled, 1, 2*d)
	mean := pooled.Data[:d]
	for j := range mean {
		mean[j] = 0
	}
	h.moduleOuts[U-1].SumRowsInto(mean)
	if seq > 0 {
		inv := 1 / float64(seq)
		for j := range mean {
			mean[j] *= inv
		}
	}
	copy(pooled.Data[d:], final.Row(0))

	hid := h.act.Forward(h.FC1.Forward(pooled))
	for j, on := range h.HiddenMask {
		if !on {
			hid.Data[j] = 0
		}
	}
	return h.FC2.Forward(hid).Row(0)
}

// looseEnds lists the nodes of one module that no block reads. The
// last block's output always is one, so the list is never empty.
func looseEnds(arch Architecture) []int {
	B := len(arch.Blocks)
	used := make([]bool, 2+B)
	for _, gene := range arch.Blocks {
		used[gene.In1] = true
		used[gene.In2] = true
	}
	var loose []int
	for b := 0; b < B; b++ {
		if !used[2+b] {
			loose = append(loose, 2+b)
		}
	}
	return loose
}

// moduleInputs wires repeat u to its two inputs.
func (h *HeaderModel) moduleInputs(u int, final, pen *tensor.Matrix) (in0, in1 *tensor.Matrix) {
	switch u {
	case 0:
		return final, pen
	case 1:
		return &h.moduleOuts[0], final
	default:
		return &h.moduleOuts[u-1], &h.moduleOuts[u-2]
	}
}

// backboneInput reports whether input node i of repeat u is a backbone
// representation rather than an earlier module's output (the inverse
// of moduleInputs' wiring).
func backboneInput(u, i int) bool {
	return i < 2 && (u == 0 || (u == 1 && i == 1))
}

// Backward implements nn.Classifier. With the backbone frozen
// (TrainBackbone off) nobody reads the gradient at the backbone's
// representations, so ops fed by them accumulate only their parameter
// gradients and dFinal/dPen are never formed; every gradient that is
// computed is bit-identical either way.
func (h *HeaderModel) Backward(dlogits []float64) {
	h.dl = tensor.Matrix{Rows: 1, Cols: len(dlogits), Data: dlogits}
	dHid := h.FC2.Backward(&h.dl)
	for j, on := range h.HiddenMask {
		if !on {
			dHid.Data[j] = 0
		}
	}
	dConcat := h.FC1.Backward(h.act.Backward(dHid))

	U, B, d := h.Cfg.Repeats, h.Cfg.Blocks, h.Cfg.DModel
	train := h.Cfg.TrainBackbone
	if h.dModule == nil {
		h.dModule = make([]gradSlot, U)
		h.nodeGrads = make([]gradSlot, 2+B)
	}
	for u := range h.dModule {
		h.dModule[u].set = false
	}
	// Gradient of the token mean-pool back to the last module output.
	dLast := h.dModule[U-1].reset(h.sc, h.seqLen, d)
	inv := 1 / float64(h.seqLen)
	for t := 0; t < h.seqLen; t++ {
		row := dLast.Row(t)
		for j := 0; j < d; j++ {
			row[j] = dConcat.Data[j] * inv
		}
	}
	if train {
		dFinal := h.sc.Zeroed(&h.dFinal, h.seqLen, d)
		// CLS half of the concat flows straight into the backbone final row 0.
		for j := 0; j < d; j++ {
			dFinal.Row(0)[j] += dConcat.Data[d+j]
		}
		h.sc.Zeroed(&h.dPen, h.seqLen, d)
	}

	for u := U - 1; u >= 0; u-- {
		if !h.dModule[u].set {
			continue
		}
		for i := range h.nodeGrads {
			h.nodeGrads[i].set = false
		}
		inv := 1 / float64(len(h.loose))
		for _, idx := range h.loose {
			h.nodeGrads[idx].axpy(h.sc, inv, &h.dModule[u].m)
		}
		for b := B - 1; b >= 0; b-- {
			if !h.nodeGrads[2+b].set {
				continue
			}
			g := &h.nodeGrads[2+b].m
			gene := h.Arch.Blocks[b]
			for slot, in := range [2]int{gene.In1, gene.In2} {
				op := h.ops[u][b][slot]
				dy := h.maskedGrad(g, u, b, slot)
				if !train && backboneInput(u, in) {
					// Nobody reads the input gradient: an op takes its
					// parameter gradients only, if it has parameters.
					switch op := op.(type) {
					case nn.ParamBackward:
						op.BackwardParams(dy)
					case nn.Identity, *nn.AvgPool1D, *nn.MaxPool1D, *nn.Downsample:
					default:
						op.Backward(dy)
					}
					continue
				}
				h.nodeGrads[in].add(h.sc, op.Backward(dy))
			}
		}
		h.routeInputGrads(u)
	}

	if train {
		inj := map[int]*tensor.Matrix{}
		if h.Backbone.ActiveDepth > 0 {
			inj[h.Backbone.ActiveDepth-1] = &h.dPen
		}
		h.Backbone.Backward(&h.dFinal, inj)
	}
}

// routeInputGrads hands repeat u's two input gradients on: to the
// module outputs they came from, or (when the backbone trains) to the
// backbone representations.
func (h *HeaderModel) routeInputGrads(u int) {
	for i := 0; i < 2; i++ {
		g := &h.nodeGrads[i]
		if !g.set {
			continue
		}
		switch {
		case !backboneInput(u, i):
			// Node 0 is the previous module's output, node 1 the one
			// before that (moduleInputs).
			h.dModule[u-1-i].add(h.sc, &g.m)
		case u == 0 && i == 1:
			tensor.AddInPlace(&h.dPen, &g.m)
		default:
			tensor.AddInPlace(&h.dFinal, &g.m)
		}
	}
}

// maskedGrad returns the gradient an op at (u, b, slot) receives: g
// itself, or a copy with the op's masked channels zeroed.
func (h *HeaderModel) maskedGrad(g *tensor.Matrix, u, b, slot int) *tensor.Matrix {
	off := h.maskedCols[u][b][slot]
	if len(off) == 0 {
		return g
	}
	m := h.sc.Ensure(&h.masked[slot], g.Rows, g.Cols)
	copy(m.Data, g.Data)
	zeroCols(m, off)
	return m
}

// gradSlot is a reusable gradient accumulator that counts as absent
// until a backward pass first contributes to it. Its buffer comes from
// the header's Scratch, as the header's others do.
type gradSlot struct {
	m   tensor.Matrix
	set bool
}

// reset marks the slot present and returns its r×c buffer, contents
// unspecified.
func (g *gradSlot) reset(sc *nn.Scratch, r, c int) *tensor.Matrix {
	g.set = true
	return sc.Ensure(&g.m, r, c)
}

// add accumulates src; the first contribution is an exact copy.
func (g *gradSlot) add(sc *nn.Scratch, src *tensor.Matrix) {
	if g.set {
		tensor.AddInPlace(&g.m, src)
		return
	}
	copy(g.reset(sc, src.Rows, src.Cols).Data, src.Data)
}

// axpy accumulates alpha·src, starting from zero.
func (g *gradSlot) axpy(sc *nn.Scratch, alpha float64, src *tensor.Matrix) {
	if !g.set {
		g.reset(sc, src.Rows, src.Cols).Zero()
	}
	tensor.AxpyRows(alpha, src, &g.m)
}

// indexMasks rebuilds maskedCols from opMasks; every writer of opMasks
// calls it, so the per-sample masking walks a short index list row by
// row instead of scanning the mask per column.
func (h *HeaderModel) indexMasks() {
	for u := range h.opMasks {
		for b := range h.opMasks[u] {
			for s, mask := range h.opMasks[u][b] {
				off := h.maskedCols[u][b][s][:0]
				for j, on := range mask {
					if !on {
						off = append(off, j)
					}
				}
				h.maskedCols[u][b][s] = off
			}
		}
	}
}

// zeroCols clears the listed columns of m.
func zeroCols(m *tensor.Matrix, cols []int) {
	if len(cols) == 0 {
		return
	}
	for t := 0; t < m.Rows; t++ {
		row := m.Row(t)
		for _, j := range cols {
			row[j] = 0
		}
	}
}

// Params implements Module. Header parameters only — the backbone's are
// deliberately excluded so Phase 2-2 training and importance sets cover
// exactly ΥᴴΥ (the paper's header parameter set). Order is
// deterministic: ops in (u, b, slot) order, then FC1, FC2. The list is
// built on first use (a header's ops never change after construction)
// and shared by every call; an append to it copies.
func (h *HeaderModel) Params() []*nn.Param {
	if h.params == nil {
		seen := make(map[*nn.Param]bool)
		for u := range h.ops {
			for b := range h.ops[u] {
				for s := 0; s < 2; s++ {
					for _, p := range h.ops[u][b][s].Params() {
						if !seen[p] {
							seen[p] = true
							h.params = append(h.params, p)
						}
					}
				}
			}
		}
		h.params = append(h.params, h.FC1.Params()...)
		h.params = append(h.params, h.FC2.Params()...)
		h.params = h.params[:len(h.params):len(h.params)]
	}
	return h.params
}

// StackedLayers implements nn.Stacking: the convolutions in (u, b,
// slot) order, then FC1 and FC2. Each runs once per sample.
func (h *HeaderModel) StackedLayers() []nn.Stackable {
	if h.stacked == nil {
		for u := range h.ops {
			for b := range h.ops[u] {
				for _, op := range h.ops[u][b] {
					if conv, ok := op.(*nn.Conv1D); ok {
						h.stacked = append(h.stacked, conv)
					}
				}
			}
		}
		h.stacked = append(h.stacked, h.FC1, h.FC2)
	}
	return h.stacked
}

// UseScratch implements nn.ScratchUser: the header's own buffers and
// those of its layers come from s until UseScratch(nil), which also
// drops the header's view of the call's last logits gradient.
func (h *HeaderModel) UseScratch(s *nn.Scratch) {
	h.sc = s
	for u := range h.ops {
		for b := range h.ops[u] {
			for _, op := range h.ops[u][b] {
				if l, ok := op.(nn.ScratchUser); ok {
					l.UseScratch(s)
				}
			}
		}
	}
	h.FC1.UseScratch(s)
	h.FC2.UseScratch(s)
	h.act.UseScratch(s)
	if s == nil {
		h.dl = tensor.Matrix{}
	}
}

// AllParams returns header plus backbone parameters (for Phase 2-1
// where the backbone trains along with the header).
func (h *HeaderModel) AllParams() []*nn.Param {
	return append(h.Params(), h.Backbone.Params()...)
}

// ActiveParamCount counts unmasked header parameters.
func (h *HeaderModel) ActiveParamCount() int {
	var n int
	seen := make(map[*nn.Param]bool)
	for u := range h.ops {
		for b := range h.ops[u] {
			for s := 0; s < 2; s++ {
				op := h.ops[u][b][s]
				if conv, ok := op.(*nn.Conv1D); ok {
					if seen[conv.W] {
						continue
					}
					seen[conv.W] = true
					active := h.Cfg.DModel
					if mask := h.opMasks[u][b][s]; mask != nil {
						active = 0
						for _, on := range mask {
							if on {
								active++
							}
						}
					}
					n += (conv.Kernel*conv.Dim + 1) * active
					continue
				}
				// Other parametric ops (LayerNorm, MHSA, MLP from the
				// extended set) count fully; they are not channel-pruned.
				for _, p := range op.Params() {
					if seen[p] {
						continue
					}
					seen[p] = true
					n += p.NumParams()
				}
			}
		}
	}
	activeHidden := 0
	for _, on := range h.HiddenMask {
		if on {
			activeHidden++
		}
	}
	n += (2*h.Cfg.DModel + 1) * activeHidden // FC1 columns + bias
	n += activeHidden * h.Cfg.NumClasses     // FC2 rows
	n += h.Cfg.NumClasses                    // FC2 bias
	return n
}

func cloneLinear(l *nn.Linear) *nn.Linear {
	return &nn.Linear{In: l.In, Out: l.Out, W: l.W.Clone(), B: l.B.Clone()}
}

// cloneOp copies op into a received instance (nn.Param): nothing is
// drawn for the weights about to be overwritten.
func cloneOp(op nn.SeqOp, dim int) nn.SeqOp {
	switch o := op.(type) {
	case *nn.Conv1D:
		c := nn.NewConv1D(o.W.Name, o.Kernel, dim, nil)
		copy(c.W.Value.Data, o.W.Value.Data)
		copy(c.B.Value.Data, o.B.Value.Data)
		return c
	case nn.Identity:
		return nn.Identity{}
	case *nn.Downsample:
		return &nn.Downsample{}
	case *nn.AvgPool1D:
		return &nn.AvgPool1D{Window: o.Window}
	case *nn.MaxPool1D:
		return &nn.MaxPool1D{Window: o.Window}
	case *nn.LayerNorm:
		ln := nn.NewLayerNorm(o.Gain.Name, dim, nil)
		copy(ln.Gain.Value.Data, o.Gain.Value.Data)
		copy(ln.Bias.Value.Data, o.Bias.Value.Data)
		return ln
	case *nn.MHSA:
		m := nn.NewMHSA(o.Wq.Name, dim, o.NumHeads, nil)
		src, dst := o.Params(), m.Params()
		for i := range src {
			copy(dst[i].Value.Data, src[i].Value.Data)
		}
		copy(m.HeadMask, o.HeadMask)
		return m
	case *nn.MLP:
		m := nn.NewMLP(o.FC1.W.Name, o.DModel, o.Hidden, nil)
		src, dst := o.Params(), m.Params()
		for i := range src {
			copy(dst[i].Value.Data, src[i].Value.Data)
		}
		copy(m.NeuronMask, o.NeuronMask)
		return m
	default:
		panic(fmt.Sprintf("nas: unknown op type %T", op))
	}
}
