package nas

import (
	"fmt"
	"math/rand"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/tensor"
)

// Featurize runs the backbone once over every sample of ds and returns
// the dataset of its representations: row i is the final (seq × d)
// token matrix of sample i followed by the penultimate one, 2·seq·d
// values, with the labels of ds. While the backbone is frozen that pair
// is a pure function of the sample, so a FrozenHeader over these rows
// computes exactly what Forward computes over ds.
//
// The rows are a snapshot: rescaling, re-depthing or training the
// backbone afterwards leaves them stale. Whoever calls Featurize owns
// them: a device keeps its rows (and shares them, read-only, with the
// devices that hold the same shard under the same backbone bits), and
// the header itself holds none.
func (h *HeaderModel) Featurize(ds *data.Dataset) (*data.Dataset, error) {
	if h.Cfg.TrainBackbone {
		return nil, fmt.Errorf("nas: featurize needs a frozen backbone")
	}
	width := featureWidth(h.Backbone)
	out := &data.Dataset{Name: ds.Name, NumClasses: ds.NumClasses, Dim: width, Y: ds.Y}
	out.X = make([][]float64, ds.Len())
	slab := make([]float64, ds.Len()*width)
	for i, x := range ds.X {
		row := slab[i*width : (i+1)*width : (i+1)*width]
		if err := featureRow(h.Backbone, x, row); err != nil {
			return nil, fmt.Errorf("nas: featurize sample %d: %w", i, err)
		}
		out.X[i] = row
	}
	return out, nil
}

// featureWidth is the length of one feature row of bb: two (seq × d)
// token matrices.
func featureWidth(bb *nn.Backbone) int { return 2 * bb.SeqLen() * bb.Cfg.DModel }

// featureRow runs bb over sample x and writes its feature row into row
// (featureWidth values): the final token matrix, then the penultimate
// one. Featurize and the searcher's validation rows both fill rows
// through it.
func featureRow(bb *nn.Backbone, x, row []float64) error {
	final, err := bb.Forward(x)
	if err != nil {
		return err
	}
	half := len(row) / 2
	copy(row[:half], final.Data)
	copy(row[half:], bb.Penultimate().Data)
	return nil
}

// FrozenHeader is a header whose backbone no longer trains, as an
// nn.Classifier over Featurize rows instead of raw samples: Forward
// starts at the header DAG, and Backward (the embedded header's) stops
// there. Everything else — masks, parameters, ApplyImportance — is the
// embedded header's, so training through either moves the same
// weights, bit for bit the same way.
type FrozenHeader struct {
	*HeaderModel

	final, pen tensor.Matrix // views into the current feature row
}

var _ nn.Classifier = (*FrozenHeader)(nil)

// Frozen returns the view of h over the feature rows of a backbone
// shaped bb, which h itself need not hold: a device that takes its rows
// from another device's backbone never decodes one. The header must have
// its backbone frozen (HeaderConfig.TrainBackbone off), and stay so.
func (h *HeaderModel) Frozen(bb nn.BackboneConfig) (*FrozenHeader, error) {
	if h.Cfg.TrainBackbone {
		return nil, fmt.Errorf("nas: frozen view of a header that trains its backbone")
	}
	seq, d := bb.SeqLen(), h.Cfg.DModel
	return &FrozenHeader{
		HeaderModel: h,
		final:       tensor.Matrix{Rows: seq, Cols: d},
		pen:         tensor.Matrix{Rows: seq, Cols: d},
	}, nil
}

// Forward implements nn.Classifier over one Featurize row.
func (f *FrozenHeader) Forward(row []float64) ([]float64, error) {
	half := f.final.Rows * f.final.Cols
	if len(row) != 2*half {
		return nil, fmt.Errorf("nas: feature row of %d values, want %d", len(row), 2*half)
	}
	if f.Cfg.TrainBackbone {
		return nil, fmt.Errorf("nas: frozen view of a header that trains its backbone")
	}
	f.final.Data, f.pen.Data = row[:half], row[half:]
	return f.forwardFromFeatures(&f.final, &f.pen), nil
}

// UseScratch implements nn.ScratchUser; at the end of a call the view
// lets go of the last feature row too.
func (f *FrozenHeader) UseScratch(s *nn.Scratch) {
	f.HeaderModel.UseScratch(s)
	if s == nil {
		f.final.Data, f.pen.Data = nil, nil
	}
}

// TrainLocal is HeaderModel.TrainLocal over Featurize rows of the
// local data: same shuffles, same updates, no backbone passes.
func (f *FrozenHeader) TrainLocal(feats *data.Dataset, epochs, batch int, lr float64, rng *rand.Rand) error {
	return trainHeader(f, f.Params(), feats, epochs, batch, lr, rng)
}
