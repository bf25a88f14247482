package nas

import (
	"fmt"
	"math/rand"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/tensor"
)

// SearchConfig controls the edge server's architecture search.
type SearchConfig struct {
	Blocks  int // B
	Repeats int // U
	Hidden  int // classifier hidden width

	// Ops is the candidate operation set Ô (nil = DefaultOpSet; use
	// ExtendedOpSet for the full Fig. 5 options).
	Ops []OpKind

	Epochs            int // alternations between shared-weight and controller training
	ChildBatches      int // minibatches of shared-weight training per epoch
	BatchSize         int
	ControllerSamples int // architectures per controller update
	ControllerUpdates int // controller updates per epoch
	FinalCandidates   int // architectures sampled to pick the winner
	RewardProbe       int // validation samples used for the reward

	SharedLR     float64
	ControllerLR float64

	// WarmupEpochs trains only the shared weights (no controller
	// updates) for the first epochs, so rewards reflect reasonably
	// trained child models rather than initialization noise. Negative
	// means half of Epochs.
	WarmupEpochs int

	// TrainBackbone lets gradients flow into the backbone during search
	// (the paper does not freeze it in Phase 2-1).
	TrainBackbone bool
	// ParameterSharing can be disabled for the ablation bench; without
	// it every sampled child trains from scratch for ChildBatches
	// minibatches.
	ParameterSharing bool
}

// DefaultSearchConfig returns micro-scale defaults.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		Blocks:            4,
		Repeats:           1,
		Hidden:            32,
		Epochs:            3,
		ChildBatches:      8,
		BatchSize:         16,
		ControllerSamples: 4,
		ControllerUpdates: 2,
		FinalCandidates:   6,
		RewardProbe:       64,
		SharedLR:          2e-3,
		ControllerLR:      5e-3,
		TrainBackbone:     true,
		ParameterSharing:  true,
	}
}

// Searcher runs ACME's Phase 2-1 on one edge server: alternating
// optimization of the shared child weights ωs and the LSTM controller
// θᴸˢᵀᴹ, then a final sampling round to pick the best header
// architecture.
type Searcher struct {
	Cfg        SearchConfig
	Backbone   *nn.Backbone
	NumClasses int

	Bank       *OpBank
	Controller *Controller
	fc1, fc2   *nn.Linear

	train, val *data.Dataset
	sharedOpt  *nn.Adam
	rng        *rand.Rand

	// valRows[i] is validation sample i's feature row under the current
	// backbone: filled the first time a reward probes i, nil until then,
	// and cleared by every shared step that trains the backbone. valSlab
	// backs the rows; final and pen view the row a reward is reading.
	valRows    [][]float64
	valSlab    []float64
	final, pen tensor.Matrix
}

// NewSearcher builds a searcher over the edge server's shared dataset.
func NewSearcher(cfg SearchConfig, backbone *nn.Backbone, numClasses int, train, val *data.Dataset, rng *rand.Rand) (*Searcher, error) {
	if cfg.Blocks <= 0 || cfg.Repeats <= 0 {
		return nil, fmt.Errorf("nas: bad search config %+v", cfg)
	}
	d := backbone.Cfg.DModel
	ops := cfg.Ops
	if len(ops) == 0 {
		ops = DefaultOpSet()
	}
	return &Searcher{
		Cfg:        cfg,
		Backbone:   backbone,
		NumClasses: numClasses,
		Bank:       NewOpBank(d, rng),
		Controller: NewControllerWithOps(cfg.Blocks, 100, cfg.ControllerLR, ops, rng),
		fc1:        nn.NewLinear("shared.fc1", 2*d, cfg.Hidden, rng),
		fc2:        nn.NewLinear("shared.fc2", cfg.Hidden, numClasses, rng),
		train:      train,
		val:        val,
		sharedOpt:  nn.NewAdam(cfg.SharedLR),
		rng:        rng,
		final:      tensor.Matrix{Rows: backbone.SeqLen(), Cols: d},
		pen:        tensor.Matrix{Rows: backbone.SeqLen(), Cols: d},
	}, nil
}

func (s *Searcher) headerConfig() HeaderConfig {
	return HeaderConfig{
		Blocks:        s.Cfg.Blocks,
		Repeats:       s.Cfg.Repeats,
		DModel:        s.Backbone.Cfg.DModel,
		Hidden:        s.Cfg.Hidden,
		NumClasses:    s.NumClasses,
		TrainBackbone: s.Cfg.TrainBackbone,
	}
}

// buildChild assembles a child model for arch over the shared weights.
func (s *Searcher) buildChild(arch Architecture) (*HeaderModel, error) {
	return BuildShared(s.headerConfig(), arch, s.Backbone, s.Bank, s.fc1, s.fc2)
}

// childParams returns the parameters a shared-weight step updates.
func (s *Searcher) childParams(h *HeaderModel) []*nn.Param {
	if s.Cfg.TrainBackbone {
		return h.AllParams()
	}
	return h.Params()
}

// trainSharedStep samples an architecture and applies one minibatch
// update to the shared weights (step 1 of the alternating optimization,
// the Monte-Carlo estimate of Eq. 15).
func (s *Searcher) trainSharedStep() error {
	traj := s.Controller.Sample()
	child, err := s.buildChild(traj.Arch)
	if err != nil {
		return err
	}
	idx := make([]int, 0, s.Cfg.BatchSize)
	for len(idx) < s.Cfg.BatchSize {
		idx = append(idx, s.rng.Intn(s.train.Len()))
	}
	nn.ZeroGrads(child)
	nn.ZeroGrads(s.Backbone)
	pass := nn.NewPass(child)
	defer pass.Release()
	if err := pass.Run(s.train.X, s.train.Y, idx, float64(len(idx))); err != nil {
		return err
	}
	s.sharedOpt.Step(s.childParams(child))
	if s.Cfg.TrainBackbone {
		clear(s.valRows) // the backbone moved: every cached row is stale
	}
	return nil
}

// reward evaluates arch's accuracy on a probe of the validation set.
// The probe is the rng.Perm draw data.Probe makes, and the header runs
// from the probed samples' feature rows, so the backbone runs only over
// samples no reward has probed since it last trained — the same
// accuracy nn.Evaluate over the raw probe gives, bit for bit.
func (s *Searcher) reward(arch Architecture) (float64, error) {
	child, err := s.buildChild(arch)
	if err != nil {
		return 0, err
	}
	n := s.val.Len()
	if n == 0 {
		return 0, nil
	}
	var idx []int
	if s.Cfg.RewardProbe > 0 && n > s.Cfg.RewardProbe {
		idx = s.rng.Perm(n)[:s.Cfg.RewardProbe]
	} else {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	}
	var correct int
	for _, i := range idx {
		row, err := s.valRow(i)
		if err != nil {
			return 0, err
		}
		half := len(row) / 2
		s.final.Data, s.pen.Data = row[:half], row[half:]
		if nn.Argmax(child.forwardFromFeatures(&s.final, &s.pen)) == s.val.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx)), nil
}

// valRow returns validation sample i's feature row under the current
// backbone, running the backbone only if no reward has probed i since
// the backbone last trained.
func (s *Searcher) valRow(i int) ([]float64, error) {
	w := featureWidth(s.Backbone)
	if s.valRows == nil {
		s.valRows = make([][]float64, s.val.Len())
		s.valSlab = make([]float64, s.val.Len()*w)
	}
	if row := s.valRows[i]; row != nil {
		return row, nil
	}
	row := s.valSlab[i*w : (i+1)*w : (i+1)*w]
	if err := featureRow(s.Backbone, s.val.X[i], row); err != nil {
		return nil, fmt.Errorf("validation sample %d: %w", i, err)
	}
	s.valRows[i] = row
	return row, nil
}

// Search runs the alternating optimization and returns the best
// architecture seen across all reward evaluations (controller-update
// samples included) plus its validation accuracy.
func (s *Searcher) Search() (Architecture, float64, error) {
	bestArch := RandomArchitecture(s.Cfg.Blocks, s.rng)
	bestR := -1.0
	consider := func(arch Architecture, r float64) {
		if r > bestR {
			bestArch, bestR = arch, r
		}
	}
	warmup := s.Cfg.WarmupEpochs
	if warmup < 0 {
		warmup = s.Cfg.Epochs / 2
	}
	for epoch := 0; epoch < s.Cfg.Epochs; epoch++ {
		for b := 0; b < s.Cfg.ChildBatches; b++ {
			if err := s.trainSharedStep(); err != nil {
				return Architecture{}, 0, fmt.Errorf("nas: shared step: %w", err)
			}
		}
		if epoch < warmup {
			continue
		}
		for u := 0; u < s.Cfg.ControllerUpdates; u++ {
			trajs := make([]Trajectory, s.Cfg.ControllerSamples)
			rewards := make([]float64, s.Cfg.ControllerSamples)
			for i := range trajs {
				trajs[i] = s.Controller.Sample()
				r, err := s.reward(trajs[i].Arch)
				if err != nil {
					return Architecture{}, 0, fmt.Errorf("nas: reward: %w", err)
				}
				rewards[i] = r
				consider(trajs[i].Arch, r)
			}
			if err := s.Controller.Update(trajs, rewards); err != nil {
				return Architecture{}, 0, fmt.Errorf("nas: controller update: %w", err)
			}
		}
	}
	// Final selection round: sample candidates from the trained policy.
	for i := 0; i < s.Cfg.FinalCandidates; i++ {
		arch := s.Controller.Sample().Arch
		r, err := s.reward(arch)
		if err != nil {
			return Architecture{}, 0, err
		}
		consider(arch, r)
	}
	return bestArch, bestR, nil
}

// EvaluateArch scores an architecture against the current shared
// weights on the validation probe (no training).
func (s *Searcher) EvaluateArch(arch Architecture) (float64, error) {
	return s.reward(arch)
}

// BuildFinal materializes the winning architecture into a privately
// owned header (fine-tuned shared weights included) ready to be
// distributed to devices.
func (s *Searcher) BuildFinal(arch Architecture) (*HeaderModel, error) {
	shared, err := s.buildChild(arch)
	if err != nil {
		return nil, err
	}
	return shared.Materialize(), nil
}
