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
// backbone afterwards leaves them stale, which is why the caller holds
// them explicitly and the header keeps no cache of its own.
func (h *HeaderModel) Featurize(ds *data.Dataset) (*data.Dataset, error) {
	if h.Cfg.TrainBackbone {
		return nil, fmt.Errorf("nas: featurize needs a frozen backbone")
	}
	half := h.Backbone.SeqLen() * h.Cfg.DModel
	out := &data.Dataset{Name: ds.Name, NumClasses: ds.NumClasses, Dim: 2 * half, Y: ds.Y}
	out.X = make([][]float64, ds.Len())
	slab := make([]float64, ds.Len()*2*half)
	for i, x := range ds.X {
		final, err := h.Backbone.Forward(x)
		if err != nil {
			return nil, fmt.Errorf("nas: featurize sample %d: %w", i, err)
		}
		row := slab[i*2*half : (i+1)*2*half : (i+1)*2*half]
		copy(row[:half], final.Data)
		copy(row[half:], h.Backbone.Penultimate().Data)
		out.X[i] = row
	}
	return out, nil
}

// FrozenHeader is a header whose backbone no longer trains, as an
// nn.Classifier over Featurize rows instead of raw samples: Forward
// starts at the header DAG, and Backward (the embedded header's) stops
// there. Everything else — masks, parameters, ApplyImportance — is the
// embedded header's, so training through either moves the same
// weights, bit for bit the same way.
type FrozenHeader struct {
	*HeaderModel

	params     []*nn.Param
	final, pen tensor.Matrix // views into the current feature row
}

var _ nn.Classifier = (*FrozenHeader)(nil)

// Frozen returns the feature-row view of h. The header must have its
// backbone frozen (HeaderConfig.TrainBackbone off), and stay so.
func (h *HeaderModel) Frozen() (*FrozenHeader, error) {
	if h.Cfg.TrainBackbone {
		return nil, fmt.Errorf("nas: frozen view of a header that trains its backbone")
	}
	seq, d := h.Backbone.SeqLen(), h.Cfg.DModel
	return &FrozenHeader{
		HeaderModel: h,
		params:      h.Params(),
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

// Params implements nn.Module: the header's parameter list, built once
// (a header's ops never change after construction).
func (f *FrozenHeader) Params() []*nn.Param { return f.params }

// TrainLocal is HeaderModel.TrainLocal over Featurize rows of the
// local data: same shuffles, same updates, no backbone passes.
func (f *FrozenHeader) TrainLocal(feats *data.Dataset, epochs, batch int, lr float64, rng *rand.Rand) error {
	return trainHeader(f, f.params, feats, epochs, batch, lr, rng)
}
