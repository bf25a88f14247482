package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"acme/internal/aggregate"
	"acme/internal/core"
	"acme/internal/data"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/prune"
)

// MicroConfig returns the micro-scale system configuration shared by
// the real-stack experiments: one uniform 5-device cluster as in
// Figs. 10–11.
func MicroConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Backbone.InputDim = 64
	cfg.Backbone.NumPatches = 4
	cfg.Backbone.DModel = 16
	cfg.Backbone.NumHeads = 2
	cfg.Backbone.Hidden = 24
	cfg.Backbone.Depth = 2
	cfg.Dataset = data.CIFAR100Like()
	cfg.Dataset.NumClasses = 20
	cfg.Dataset.NumSuper = 4
	cfg.NumClasses = 20
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.Clusters = 1
	cfg.Fleet.Spec.DevicesPerCluster = 5
	cfg.SamplesPerDevice = 150
	cfg.ClassesPerDevice = 8
	cfg.DataGroups = 2
	cfg.PublicSamples = 200
	cfg.PretrainEpochs = 2
	cfg.CloudProbe = 64
	cfg.Widths = []float64{0.5, 1.0}
	cfg.Depths = []int{1, 2}
	cfg.Distill.Epochs = 1
	cfg.Search.Epochs = 1
	cfg.Search.ChildBatches = 4
	cfg.Search.ControllerSamples = 2
	cfg.Search.ControllerUpdates = 1
	cfg.Search.FinalCandidates = 2
	cfg.Search.RewardProbe = 24
	cfg.Search.Blocks = 2
	cfg.Search.Hidden = 16
	cfg.Phase2Rounds = 2
	cfg.DiscardPerRound = 4
	cfg.LocalEpochs = 2
	cfg.ProbeSize = 24
	return cfg
}

// Fig10 reproduces the similarity-heatmap comparison: five devices with
// two underlying data distributions (devices 0–2 vs 3–4), contrasted
// under Wasserstein and JS similarity.
func Fig10() (*Table, error) {
	gen, err := data.NewGenerator(func() data.Spec {
		s := data.CIFAR100Like()
		s.NumClasses = 20
		s.NumSuper = 4
		// Sharpen the hierarchy so the two distribution groups are
		// well-separated in feature space while fine classes stay close.
		s.SuperSep = 4.5
		s.ClassSep = 0.6
		return s
	}())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(10))
	// Devices 0-2 draw from superclasses {0,1} and devices 3-4 from
	// {2,3}, but each device sees *different fine classes*: label
	// histograms are disjoint everywhere (so JS cannot see the group
	// structure), while the feature distributions cluster by
	// superclass — exactly the "complex data relationship" the paper
	// says Wasserstein captures and JS misses (generator: 4 superclasses
	// × 5 fine classes; class c belongs to superclass c/5).
	classSets := [][]int{
		{0, 1, 5},    // supers 0,1
		{2, 6, 7},    // supers 0,1 — disjoint fine classes
		{3, 4, 8},    // supers 0,1 — disjoint fine classes
		{10, 11, 15}, // supers 2,3
		{12, 16, 17}, // supers 2,3 — disjoint fine classes
	}
	groupID := []int{0, 0, 0, 1, 1}

	fx := data.NewFeatureExtractor(gen.Spec.Dim, 16, 7)
	features := make([][][]float64, len(classSets))
	hists := make([][]float64, len(classSets))
	for i, classes := range classSets {
		shard := gen.Sample(80, classes, rng)
		features[i] = fx.ExtractAll(shard)
		hists[i] = shard.ClassHistogram()
	}

	simW, err := aggregate.WassersteinSimilarityRaw(features, 1, 24, rng)
	if err != nil {
		return nil, err
	}
	simJS, err := aggregate.JSSimilarityRaw(hists)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig10",
		Title:   "Similarity matrices: Wasserstein vs JS (devices 0-2 share a distribution; 3-4 another)",
		Columns: []string{"metric", "i", "j=0", "j=1", "j=2", "j=3", "j=4"},
	}
	addMatrix := func(name string, sim [][]float64) {
		for i := range sim {
			row := []string{name, fmt.Sprint(i)}
			for _, v := range sim[i] {
				row = append(row, f3(v))
			}
			t.AddRow(row...)
		}
	}
	addMatrix("wasserstein", simW)
	addMatrix("js", simJS)

	cw := contrast(simW, groupID)
	cj := contrast(simJS, groupID)
	t.Notes = append(t.Notes,
		fmt.Sprintf("within/cross-group similarity contrast: wasserstein %.3f vs js %.3f (higher = sharper group structure)", cw, cj),
		"label sets are disjoint everywhere, so JS sees no structure; features cluster by superclass")
	return t, nil
}

// contrast measures mean within-group similarity over mean cross-group
// similarity (diagonal excluded).
func contrast(sim [][]float64, groupID []int) float64 {
	var win, cross float64
	var nw, nc int
	for i := range sim {
		for j := range sim[i] {
			if i == j {
				continue
			}
			if groupID[i] == groupID[j] {
				win += sim[i][j]
				nw++
			} else {
				cross += sim[i][j]
				nc++
			}
		}
	}
	if nw == 0 || nc == 0 || cross == 0 {
		return 0
	}
	return (win / float64(nw)) / (cross / float64(nc))
}

// Fig11 reproduces the aggregation-method comparison: accuracy
// improvement of Alone / Average / JS / Wasserstein refinement under
// IID and C1–C3 data distributions, averaged over seeds.
func Fig11(seeds int) (*Table, error) {
	if seeds <= 0 {
		seeds = 2
	}
	levels := []data.ConfusionLevel{data.IID, data.C1, data.C2, data.C3}
	methods := []core.AggregationMethod{
		core.AggregateAlone, core.AggregateAverage, core.AggregateJS, core.AggregateWasserstein,
	}
	t := &Table{
		ID:      "fig11",
		Title:   "Accuracy improvement (1e-2) of aggregation methods under four data distributions",
		Columns: []string{"distribution", "alone", "average", "js", "wasserstein(ours)"},
	}
	for _, level := range levels {
		row := []string{level.String()}
		for _, method := range methods {
			var improvement float64
			for seed := 0; seed < seeds; seed++ {
				cfg := MicroConfig()
				// The collaboration benefit the paper measures comes
				// from *limited* local data (§III-D2: "to overcome the
				// restrictions of limited data on devices"): starve the
				// devices so local importance estimates are noisy.
				cfg.SamplesPerDevice = 60
				cfg.Level = level
				cfg.Aggregation = method
				cfg.Seed = int64(100 + seed)
				res, err := runSystem(cfg)
				if err != nil {
					return nil, fmt.Errorf("fig11 %v/%v: %w", level, method, err)
				}
				improvement += res.MeanAccuracyFinal() - res.MeanAccuracyCoarse()
			}
			row = append(row, f2(improvement/float64(seeds)*100))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"values are mean (final − coarse) accuracy × 100 across devices and seeds",
		"paper: ours highest at every level; Avg loses its edge as confusion rises",
		"micro-scale caveat: all four methods land within test-set noise here; see EXPERIMENTS.md")
	return t, nil
}

func runSystem(cfg core.Config) (*core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	return sys.Run(ctx)
}

// Table1Measured complements Table1's paper-scale model with measured
// protocol traffic from a real micro-scale run.
func Table1Measured() (*Table, error) {
	cfg := MicroConfig()
	res, err := runSystem(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table1-measured",
		Title:   "Measured protocol traffic of one micro-scale run",
		Columns: []string{"quantity", "bytes"},
	}
	t.AddRow("ACME uplink (stats+importance)", fmt.Sprint(res.UploadBytes))
	t.AddRow("CS uplink (full local datasets)", fmt.Sprint(res.CentralizedUploadBytes))
	byKind := res.Stats.BytesByKind()
	for _, kind := range res.Stats.Kinds() {
		t.AddRow("kind "+kind.String(), fmt.Sprint(byKind[kind]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("search space: ours %.2g vs CS %.2g architectures", res.SearchSpaceOurs, res.SearchSpaceCS),
		fmt.Sprintf("wire codec ratio (in-memory/wire bytes): %.2f", res.Stats.CompressionRatio()),
		"micro-scale payloads invert the data/set size ratio; Table 1 uses paper-scale units")
	return t, nil
}

// AblationDistillation compares the pruned student with and without
// knowledge distillation (Eq. 9).
func AblationDistillation() (*Table, error) {
	rng := rand.New(rand.NewSource(42))
	spec := data.CIFAR100Like()
	spec.NumClasses = 20
	spec.NumSuper = 4
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	public := gen.Sample(300, nil, rng)
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: spec.Dim, NumPatches: 4, DModel: 16, NumHeads: 2, Hidden: 24, Depth: 4,
	}, rng)
	if err != nil {
		return nil, err
	}
	ref := nn.NewBackboneClassifier(bb, 20, rng)
	opt := nn.NewAdam(1e-3)
	for e := 0; e < 3; e++ {
		if _, err := nn.TrainEpoch(ref, opt, public.X, public.Y, 16, rng); err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID:      "ablation-distill",
		Title:   "Pruned student quality with vs without distillation (Eq. 9)",
		Columns: []string{"w", "d", "acc-no-distill", "acc-distilled"},
	}
	for _, wd := range []struct {
		w float64
		d int
	}{{0.5, 2}, {0.5, 3}, {1.0, 2}} {
		accs := make([]float64, 2)
		for i, epochs := range []int{0, 2} {
			cfg := prune.DefaultDistillConfig()
			cfg.Epochs = epochs
			g := prune.NewGenerator(ref, public, cfg)
			crng := rand.New(rand.NewSource(7))
			student, err := g.Generate(wd.w, wd.d, crng)
			if err != nil {
				return nil, err
			}
			acc, err := nn.Evaluate(student, public.X, public.Y)
			if err != nil {
				return nil, err
			}
			accs[i] = acc
		}
		t.AddRow(f2(wd.w), fmt.Sprint(wd.d), f3(accs[0]), f3(accs[1]))
	}
	t.Notes = append(t.Notes, "distillation should recover accuracy lost to pruning")
	return t, nil
}

// AblationController compares controller-guided NAS against random
// architecture search under the same evaluation budget, averaged over
// seeds.
func AblationController() (*Table, error) {
	const seeds = 3
	var guided, random stratStats
	for seed := int64(0); seed < seeds; seed++ {
		g, r, err := controllerVsRandom(seed)
		if err != nil {
			return nil, err
		}
		guided.add(g)
		random.add(r)
	}
	t := &Table{
		ID:      "ablation-controller",
		Title:   "Controller-guided vs random header search (same weight bank, mean of 3 seeds)",
		Columns: []string{"strategy", "mean-val-accuracy", "best-val-accuracy"},
	}
	t.AddRow("lstm-controller", f3(guided.meanOfMeans()), f3(guided.meanOfBests()))
	t.AddRow("random-search", f3(random.meanOfMeans()), f3(random.meanOfBests()))
	t.Notes = append(t.Notes,
		"mean column measures what REINFORCE optimizes: the expected quality of a sampled architecture")
	return t, nil
}

type stratStats struct {
	means, bests []float64
}

func (s *stratStats) add(r drawResult) {
	s.means = append(s.means, r.mean)
	s.bests = append(s.bests, r.best)
}

func (s *stratStats) meanOfMeans() float64 { return meanOf(s.means) }
func (s *stratStats) meanOfBests() float64 { return meanOf(s.bests) }

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

type drawResult struct {
	mean, best float64
}

func controllerVsRandom(seed int64) (guided, random drawResult, err error) {
	rng := rand.New(rand.NewSource(5 + seed))
	spec := data.CIFAR100Like()
	spec.NumClasses = 10
	spec.NumSuper = 2
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return drawResult{}, drawResult{}, err
	}
	train := gen.Sample(240, nil, rng)
	val := gen.Sample(120, nil, rand.New(rand.NewSource(6+seed)))
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: spec.Dim, NumPatches: 4, DModel: 16, NumHeads: 2, Hidden: 24, Depth: 2,
	}, rng)
	if err != nil {
		return drawResult{}, drawResult{}, err
	}

	scfg := nas.DefaultSearchConfig()
	scfg.Blocks = 3
	scfg.Hidden = 16
	scfg.Epochs = 8
	scfg.WarmupEpochs = 3
	scfg.ChildBatches = 12
	scfg.ControllerSamples = 8
	scfg.ControllerUpdates = 4
	scfg.FinalCandidates = 8
	scfg.RewardProbe = 0 // full validation set

	searcher, err := nas.NewSearcher(scfg, bb, spec.NumClasses, train, val, rand.New(rand.NewSource(11+seed)))
	if err != nil {
		return drawResult{}, drawResult{}, err
	}
	if _, _, err := searcher.Search(); err != nil {
		return drawResult{}, drawResult{}, err
	}

	// Both strategies draw the same number of candidates evaluated on
	// the same trained weight bank, isolating the value of the learned
	// policy from shared-weight training variance (the ENAS comparison
	// protocol).
	const draws = 12
	archRng := rand.New(rand.NewSource(77 + seed))
	for i := 0; i < draws; i++ {
		g, err := searcher.EvaluateArch(searcher.Controller.Sample(false).Arch)
		if err != nil {
			return drawResult{}, drawResult{}, err
		}
		guided.mean += g / draws
		if g > guided.best {
			guided.best = g
		}
		r, err := searcher.EvaluateArch(nas.RandomArchitecture(scfg.Blocks, archRng))
		if err != nil {
			return drawResult{}, drawResult{}, err
		}
		random.mean += r / draws
		if r > random.best {
			random.best = r
		}
	}
	return guided, random, nil
}

// AblationLoopRounds sweeps the Phase 2-2 single-loop iteration count T.
func AblationLoopRounds() (*Table, error) {
	t := &Table{
		ID:      "ablation-rounds",
		Title:   "Phase 2-2 loop rounds T vs final accuracy",
		Columns: []string{"rounds", "coarse-acc", "final-acc"},
	}
	for _, rounds := range []int{0, 1, 2, 3} {
		cfg := MicroConfig()
		cfg.Phase2Rounds = rounds
		res, err := runSystem(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(rounds), f3(res.MeanAccuracyCoarse()), f3(res.MeanAccuracyFinal()))
	}
	return t, nil
}
