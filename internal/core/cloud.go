package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
	"acme/internal/transport"
	"acme/internal/wire"
)

// runCloud is Phase 1: pretrain the reference model on the public
// dataset, receive per-cluster statistics from the edges, build the
// Pareto Front Grid per cluster, distill the selected backbone, and
// distribute it (cloud-edge bidirectional interaction).
func (s *System) runCloud(ctx context.Context) error {
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 1))
	ses := transport.NewSession("cloud", s.Net)

	ref, err := s.trainReference(rng)
	if err != nil {
		return fmt.Errorf("reference model: %w", err)
	}
	gen := prune.NewGenerator(ref, s.public, s.Cfg.Distill)
	if err := gen.EnsureImportance(256, rng); err != nil {
		return fmt.Errorf("importance: %w", err)
	}

	// Gather statistical parameters from every edge server.
	edgeNames := make([]string, 0, len(s.clusters))
	for e := range s.clusters {
		edgeNames = append(edgeNames, edgeName(e))
	}
	stats := make(map[int]ClusterStats, len(s.clusters))
	if _, err := ses.Gather(ctx, transport.GatherSpec{
		Kinds:  []transport.Kind{transport.KindStats},
		Expect: edgeNames,
		Label:  "phase-1 statistics",
		OnMessage: func(msg transport.Message) error {
			var cs ClusterStats
			if err := wire.Decode(msg.Payload, &cs); err != nil {
				return fmt.Errorf("decode %v from %s: %w", msg.Kind, msg.From, err)
			}
			stats[cs.EdgeID] = cs
			return nil
		},
	}); err != nil {
		return err
	}

	// Deterministic processing order regardless of arrival order.
	edgeIDs := make([]int, 0, len(stats))
	for id := range stats {
		edgeIDs = append(edgeIDs, id)
	}
	sort.Ints(edgeIDs)

	for _, edgeID := range edgeIDs {
		cs := stats[edgeID]
		crng := rand.New(rand.NewSource(s.Cfg.Seed + 1000 + int64(edgeID)))
		cands := s.sweepCandidates(ref, cs, crng)
		grid, err := pareto.Build(cands, s.Cfg.Pareto)
		if err != nil {
			return fmt.Errorf("edge %d: pfg: %w", edgeID, err)
		}
		selected, err := grid.Select(cs.MinStorage)
		if err != nil {
			// No feasible candidate: fall back to the smallest one so
			// the cluster still gets a model.
			selected = smallestCandidate(cands)
		}
		student, err := gen.Generate(selected.W, selected.D, crng)
		if err != nil {
			return fmt.Errorf("edge %d: distill: %w", edgeID, err)
		}
		s.recordAssignment(edgeID, selected)
		asg := EncodeBackbone(student.Backbone, selected.W, selected.D, selected, s.Cfg.Wire.Quantization)
		if err := s.send(transport.KindBackbone, "cloud", edgeName(edgeID), asg); err != nil {
			return err
		}
	}
	return nil
}

// trainReference pretrains θ₀ on the public dataset.
func (s *System) trainReference(rng *rand.Rand) (*nn.BackboneClassifier, error) {
	bb, err := nn.NewBackbone(s.Cfg.Backbone, rng)
	if err != nil {
		return nil, err
	}
	ref := nn.NewBackboneClassifier(bb, s.Cfg.NumClasses, rng)
	opt := nn.NewAdam(1e-3)
	for e := 0; e < s.Cfg.PretrainEpochs; e++ {
		if _, err := nn.TrainEpoch(ref, opt, s.public.X, s.public.Y, 16, rng); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// sweepCandidates scores the (w, d) lattice for one cluster: loss and
// accuracy on a cloud probe with masked clones (distillation happens
// only for the winner), energy from the cluster's worst-case profile,
// size from the active parameter count.
func (s *System) sweepCandidates(ref *nn.BackboneClassifier, cs ClusterStats, rng *rand.Rand) []pareto.Candidate {
	probe := data.Probe(s.public, s.Cfg.CloudProbe, rng)
	return pareto.SweepCandidates(s.Cfg.Widths, s.Cfg.Depths, func(w float64, d int) pareto.Candidate {
		bb := ref.Backbone.Clone()
		cand := pareto.Candidate{W: w, D: d}
		if err := bb.ScaleWidth(w); err != nil {
			cand.Loss = 1e9
			return cand
		}
		if err := bb.SetDepth(d); err != nil {
			cand.Loss = 1e9
			return cand
		}
		clone := &nn.BackboneClassifier{Backbone: bb, Head: ref.Head}
		loss, acc, err := nn.Score(clone, probe.X, probe.Y)
		if err != nil {
			cand.Loss = 1e9
			return cand
		}
		cand.Loss = loss
		cand.Accuracy = acc
		cand.Energy = cs.Profile.Energy(w, d)
		cand.Size = float64(bb.ActiveParamCount() + nn.CountParams(ref.Head))
		return cand
	})
}

func smallestCandidate(cands []pareto.Candidate) pareto.Candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Size < best.Size {
			best = c
		}
	}
	return best
}
