package nas

import (
	"fmt"
	"math/rand"

	"acme/internal/nn"
	"acme/internal/tensor"
)

// FixedHeaderKind enumerates the hand-designed reference headers used
// as the "traditional header" comparators of Figs. 7(b), 8 and 13(b)
// (after Bakhtiarnia et al.'s multi-exit ViT heads).
type FixedHeaderKind int

// Reference header kinds.
const (
	HeaderLinear FixedHeaderKind = iota + 1 // linear probe on [CLS]
	HeaderMLP                               // 2-layer MLP on [CLS]
	HeaderCNN                               // conv over tokens + pool + linear
	HeaderPool                              // global average pool + linear
)

// String implements fmt.Stringer.
func (k FixedHeaderKind) String() string {
	switch k {
	case HeaderLinear:
		return "linear"
	case HeaderMLP:
		return "mlp"
	case HeaderCNN:
		return "cnn"
	case HeaderPool:
		return "pool"
	default:
		return fmt.Sprintf("FixedHeaderKind(%d)", int(k))
	}
}

// AllFixedHeaderKinds lists the four reference headers.
func AllFixedHeaderKinds() []FixedHeaderKind {
	return []FixedHeaderKind{HeaderLinear, HeaderMLP, HeaderCNN, HeaderPool}
}

// FixedHeader is a hand-designed classification head over a backbone.
type FixedHeader struct {
	Kind     FixedHeaderKind
	Backbone *nn.Backbone
	// TrainBackbone propagates gradients into the backbone.
	TrainBackbone bool

	fc1, fc2 *nn.Linear
	conv     *nn.Conv1D
	act      nn.GELU

	cls    *tensor.Matrix
	pooled *tensor.Matrix
	seqLen int
	mode   FixedHeaderKind
}

var _ nn.Classifier = (*FixedHeader)(nil)

// NewFixedHeader builds a reference header of the given kind.
func NewFixedHeader(kind FixedHeaderKind, backbone *nn.Backbone, numClasses, hidden int, rng *rand.Rand) (*FixedHeader, error) {
	d := backbone.Cfg.DModel
	h := &FixedHeader{Kind: kind, Backbone: backbone, mode: kind}
	switch kind {
	case HeaderLinear:
		h.fc2 = nn.NewLinear("fixed.linear", d, numClasses, rng)
	case HeaderMLP:
		h.fc1 = nn.NewLinear("fixed.mlp1", d, hidden, rng)
		h.fc2 = nn.NewLinear("fixed.mlp2", hidden, numClasses, rng)
	case HeaderCNN:
		h.conv = nn.NewConv1D("fixed.conv", 3, d, rng)
		h.fc2 = nn.NewLinear("fixed.cnnout", d, numClasses, rng)
	case HeaderPool:
		h.fc2 = nn.NewLinear("fixed.poolout", d, numClasses, rng)
	default:
		return nil, fmt.Errorf("nas: unknown fixed header kind %d", int(kind))
	}
	return h, nil
}

// Forward implements nn.Classifier.
func (h *FixedHeader) Forward(x []float64) ([]float64, error) {
	final, err := h.Backbone.Forward(x)
	if err != nil {
		return nil, err
	}
	h.seqLen = final.Rows
	d := final.Cols
	switch h.Kind {
	case HeaderLinear:
		h.cls = tensor.FromSlice(1, d, append([]float64(nil), final.Row(0)...))
		return h.fc2.Forward(h.cls).Row(0), nil
	case HeaderMLP:
		h.cls = tensor.FromSlice(1, d, append([]float64(nil), final.Row(0)...))
		return h.fc2.Forward(h.act.Forward(h.fc1.Forward(h.cls))).Row(0), nil
	case HeaderCNN:
		conv := h.conv.Forward(final)
		h.pooled = tensor.FromSlice(1, d, conv.MeanRows())
		return h.fc2.Forward(h.pooled).Row(0), nil
	default: // HeaderPool
		h.pooled = tensor.FromSlice(1, d, final.MeanRows())
		return h.fc2.Forward(h.pooled).Row(0), nil
	}
}

// Backward implements nn.Classifier.
func (h *FixedHeader) Backward(dlogits []float64) {
	dl := tensor.FromSlice(1, len(dlogits), dlogits)
	d := h.Backbone.Cfg.DModel
	dFinal := tensor.New(h.seqLen, d)
	switch h.Kind {
	case HeaderLinear:
		dcls := h.fc2.Backward(dl)
		copy(dFinal.Row(0), dcls.Row(0))
	case HeaderMLP:
		dcls := h.fc1.Backward(h.act.Backward(h.fc2.Backward(dl)))
		copy(dFinal.Row(0), dcls.Row(0))
	case HeaderCNN:
		dpool := h.fc2.Backward(dl)
		dconv := tensor.New(h.seqLen, d)
		inv := 1 / float64(h.seqLen)
		for t := 0; t < h.seqLen; t++ {
			for j := 0; j < d; j++ {
				dconv.Row(t)[j] = dpool.Data[j] * inv
			}
		}
		dFinal = h.conv.Backward(dconv)
	default: // HeaderPool
		dpool := h.fc2.Backward(dl)
		inv := 1 / float64(h.seqLen)
		for t := 0; t < h.seqLen; t++ {
			for j := 0; j < d; j++ {
				dFinal.Row(t)[j] = dpool.Data[j] * inv
			}
		}
	}
	if h.TrainBackbone {
		h.Backbone.Backward(dFinal, nil)
	}
}

// Params implements Module (header parameters only).
func (h *FixedHeader) Params() []*nn.Param {
	var ps []*nn.Param
	if h.fc1 != nil {
		ps = append(ps, h.fc1.Params()...)
	}
	if h.conv != nil {
		ps = append(ps, h.conv.Params()...)
	}
	ps = append(ps, h.fc2.Params()...)
	return ps
}
