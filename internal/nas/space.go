// Package nas implements ACME's Phase 2-1 header search (§III-C): a
// block-DAG search space over sequence operations (Eq. 14), an ENAS-
// style LSTM controller trained with REINFORCE and a moving-average
// baseline (Eq. 15), parameter sharing across sampled child models, and
// the fixed reference headers used as comparators in Figs. 7(b)/8/13(b).
package nas

import (
	"fmt"
	"math/rand"

	"acme/internal/nn"
)

// OpKind enumerates the candidate operations Ô of the search space.
// The default set is §IV-A's implementation list (convolutions with
// kernel 1/3/5, identity, downsampling, average / max pooling); the
// extended set adds the remaining Fig. 5 operation options (MHSA,
// LayerNorm, MLP) — "designing various NAS search spaces" is how the
// paper serves different Transformer-based models.
type OpKind int

// Candidate operations.
const (
	OpConv1 OpKind = iota + 1
	OpConv3
	OpConv5
	OpIdentity
	OpDownsample
	OpAvgPool
	OpMaxPool
	OpLayerNorm
	OpMHSA
	OpMLPBlock
)

// NumOpKinds is |Ô| of the default (§IV-A) operation set.
const NumOpKinds = 7

// DefaultOpSet returns the §IV-A operation set.
func DefaultOpSet() []OpKind {
	return []OpKind{OpConv1, OpConv3, OpConv5, OpIdentity, OpDownsample, OpAvgPool, OpMaxPool}
}

// ExtendedOpSet returns the full Fig. 5 operation options.
func ExtendedOpSet() []OpKind {
	return append(DefaultOpSet(), OpLayerNorm, OpMHSA, OpMLPBlock)
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpConv1:
		return "conv1"
	case OpConv3:
		return "conv3"
	case OpConv5:
		return "conv5"
	case OpIdentity:
		return "identity"
	case OpDownsample:
		return "downsample"
	case OpAvgPool:
		return "avgpool"
	case OpMaxPool:
		return "maxpool"
	case OpLayerNorm:
		return "layernorm"
	case OpMHSA:
		return "mhsa"
	case OpMLPBlock:
		return "mlp"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// newOp instantiates a sequence operation of the given kind.
func newOp(k OpKind, name string, dim int, rng *rand.Rand) nn.SeqOp {
	switch k {
	case OpConv1:
		return nn.NewConv1D(name, 1, dim, rng)
	case OpConv3:
		return nn.NewConv1D(name, 3, dim, rng)
	case OpConv5:
		return nn.NewConv1D(name, 5, dim, rng)
	case OpIdentity:
		return nn.Identity{}
	case OpDownsample:
		return &nn.Downsample{}
	case OpAvgPool:
		return &nn.AvgPool1D{Window: 3}
	case OpMaxPool:
		return &nn.MaxPool1D{Window: 3}
	case OpLayerNorm:
		return nn.NewLayerNorm(name, dim, rng)
	case OpMHSA:
		heads := 2
		for dim%heads != 0 {
			heads--
		}
		return nn.NewMHSA(name, dim, heads, rng)
	case OpMLPBlock:
		return nn.NewMLP(name, dim, 2*dim, rng)
	default:
		panic(fmt.Sprintf("nas: unknown op kind %d", int(k)))
	}
}

// BlockGene is the 5-tuple (Î₁, Î₂, Ô₁, Ô₂, Ĉ) of one block with the
// combiner Ĉ fixed to element-wise addition.
type BlockGene struct {
	In1, In2 int
	Op1, Op2 OpKind
}

// Architecture is a sampled header architecture: B block genes.
type Architecture struct {
	Blocks []BlockGene
}

// InputSetSize returns |Îb| for block index b (0-based): the backbone
// output, the penultimate-layer output, and all preceding blocks.
func InputSetSize(b int) int { return b + 2 }

// Validate reports whether the architecture is well-formed.
func (a Architecture) Validate() error {
	if len(a.Blocks) == 0 {
		return fmt.Errorf("nas: empty architecture")
	}
	for b, gene := range a.Blocks {
		limit := InputSetSize(b)
		if gene.In1 < 0 || gene.In1 >= limit || gene.In2 < 0 || gene.In2 >= limit {
			return fmt.Errorf("nas: block %d inputs (%d,%d) outside [0,%d)", b, gene.In1, gene.In2, limit)
		}
		if !validOp(gene.Op1) || !validOp(gene.Op2) {
			return fmt.Errorf("nas: block %d has invalid op kinds (%v,%v)", b, gene.Op1, gene.Op2)
		}
	}
	return nil
}

func validOp(k OpKind) bool { return k >= OpConv1 && k <= OpMLPBlock }

// String implements fmt.Stringer.
func (a Architecture) String() string {
	s := "arch["
	for b, g := range a.Blocks {
		if b > 0 {
			s += " "
		}
		s += fmt.Sprintf("b%d(%d,%d,%v,%v)", b, g.In1, g.In2, g.Op1, g.Op2)
	}
	return s + "]"
}

// SpaceSize returns |B̂₁:B| = Π (|Îb|² · |Ô|²) for a header with B
// blocks over the default operation set (Eq. 14).
func SpaceSize(blocks int) float64 {
	return SpaceSizeWithOps(blocks, NumOpKinds)
}

// SpaceSizeWithOps is SpaceSize for an arbitrary operation-set size.
func SpaceSizeWithOps(blocks, numOps int) float64 {
	size := 1.0
	for b := 0; b < blocks; b++ {
		in := float64(InputSetSize(b))
		size *= in * in * float64(numOps) * float64(numOps)
	}
	return size
}

// RandomArchitecture samples a uniform architecture with B blocks over
// the default operation set.
func RandomArchitecture(blocks int, rng *rand.Rand) Architecture {
	ops := DefaultOpSet()
	a := Architecture{Blocks: make([]BlockGene, blocks)}
	for b := range a.Blocks {
		limit := InputSetSize(b)
		a.Blocks[b] = BlockGene{
			In1: rng.Intn(limit),
			In2: rng.Intn(limit),
			Op1: ops[rng.Intn(len(ops))],
			Op2: ops[rng.Intn(len(ops))],
		}
	}
	return a
}
