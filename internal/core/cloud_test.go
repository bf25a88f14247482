package core

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
)

// TestSweepSharesDepthPrefix: the sweep scores every depth of a width
// from one pass to the deepest, reading the shallower depths off the
// hidden states. Each candidate must be bit-equal to nn.Score on its own
// depth-d masked clone with its own head — the from-scratch reference —
// and an invalid width or depth must still score Loss = 1e9.
func TestSweepSharesDepthPrefix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 1
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	ref, err := s.trainReference(rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := prune.NewGenerator(ref, s.public, cfg.Distill).EnsureImportance(256, rng); err != nil {
		t.Fatal(err)
	}
	cs := ClusterStats{Profile: s.Devices()[0].Profile}

	reference := func(w float64, d int, probe *data.Dataset) pareto.Candidate {
		cand := pareto.Candidate{W: w, D: d}
		bb := ref.Backbone.Clone()
		if bb.ScaleWidth(w) != nil || bb.SetDepth(d) != nil {
			cand.Loss = 1e9
			return cand
		}
		head := &nn.Linear{In: ref.Head.In, Out: ref.Head.Out, W: ref.Head.W.Clone(), B: ref.Head.B.Clone()}
		loss, acc, err := nn.Score(&nn.BackboneClassifier{Backbone: bb, Head: head}, probe.X, probe.Y)
		if err != nil {
			t.Fatal(err)
		}
		cand.Loss, cand.Accuracy = loss, acc
		cand.Energy = cs.Profile.Energy(w, d)
		cand.Size = float64(bb.ActiveParamCount() + nn.CountParams(ref.Head))
		return cand
	}
	check := func(widths []float64, depths []int, valid int) {
		t.Helper()
		s.Cfg.Widths, s.Cfg.Depths = widths, depths
		got := s.sweepCandidates(ref, cs, rand.New(rand.NewSource(7)))
		probe := data.Probe(s.public, cfg.CloudProbe, rand.New(rand.NewSource(7)))
		want := pareto.SweepCandidates(widths, depths, func(w float64, d int) pareto.Candidate {
			return reference(w, d, probe)
		})
		if len(got) != len(want) {
			t.Fatalf("%d candidates, want %d", len(got), len(want))
		}
		scored := 0
		for i, g := range got {
			w := want[i]
			if g.W != w.W || g.D != w.D || g.Size != w.Size || g.Accuracy != w.Accuracy ||
				math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
				math.Float64bits(g.Energy) != math.Float64bits(w.Energy) {
				t.Fatalf("candidate %d: %+v, want %+v", i, g, w)
			}
			if g.Loss != 1e9 {
				scored++
			}
		}
		if scored != valid {
			t.Fatalf("%d candidates scored, want %d", scored, valid)
		}
	}
	check(cfg.Widths, cfg.Depths, len(cfg.Widths)*len(cfg.Depths))
	// Widths 0 and 1.5 and depths 0 and Depth+1 are outside the lattice:
	// only (0.5, 2) and (0.5, 1) score.
	check([]float64{1.5, 0.5, 0}, []int{0, 2, cfg.Backbone.Depth + 1, 1}, 2)
}

// TestInfeasibleStorageFallsBackToSmallest: a cluster whose devices can
// store no candidate still gets a backbone, and it is the sweep's
// smallest one, not the front model Select would pick under a looser
// cap.
func TestInfeasibleStorageFallsBackToSmallest(t *testing.T) {
	cfg := tinyConfig()
	cfg.StorageFractions = []float64{0.01} // of the reference model: below every candidate
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	ref, err := s.trainReference(rng)
	if err != nil {
		t.Fatal(err)
	}
	gen := prune.NewGenerator(ref, s.public, cfg.Distill)
	if err := gen.EnsureImportance(256, rng); err != nil {
		t.Fatal(err)
	}
	cs := s.clusterStats(0)
	if err := s.customizeCluster(ref, gen, cs); err != nil {
		t.Fatal(err)
	}

	cands := s.sweepCandidates(ref, cs, rand.New(rand.NewSource(cfg.Seed+1000)))
	want := cands[0]
	for _, c := range cands {
		if c.Size <= cs.MinStorage {
			t.Fatalf("candidate (%v, %d) of %v params fits the cap: the fallback is not reached", c.W, c.D, c.Size)
		}
		if c.Size < want.Size {
			want = c
		}
	}
	if got := s.assignmentsCopy()[0]; got.W != want.W || got.D != want.D || got.Size != want.Size {
		t.Fatalf("assigned (%v, %d) of %v params, want the smallest candidate (%v, %d) of %v",
			got.W, got.D, got.Size, want.W, want.D, want.Size)
	}
	if grid, err := pareto.Build(cands, cfg.Pareto); err != nil {
		t.Fatal(err)
	} else if front, err := grid.Select(math.Inf(1)); err == nil && front.W == want.W && front.D == want.D {
		t.Fatalf("uncapped Select also picks (%v, %d): the test cannot tell the fallback from it", want.W, want.D)
	}
}
