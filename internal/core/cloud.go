package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
	"acme/internal/tensor"
	"acme/internal/transport"
	"acme/internal/wire"
)

// runCloud is Phase 1: pretrain the reference model on the public
// dataset, receive per-cluster statistics from the edges, build the
// Pareto Front Grid per cluster, distill the selected backbone, and
// distribute it (cloud-edge bidirectional interaction).
//
// The reference model, its importances and the statistics gather are
// shared and run first, in that order. Every cluster is then customized
// on its own goroutine (customizeCluster) with its own rng, seeded
// Seed+1000+edgeID, so what an edge receives does not depend on how the
// goroutines interleave. They share ref, gen and the public dataset,
// all read-only from here on.
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

	// One error slot per edge, in edge-ID order, so the joined error
	// reads the same whichever cluster fails first.
	edgeIDs := make([]int, 0, len(stats))
	for id := range stats {
		edgeIDs = append(edgeIDs, id)
	}
	sort.Ints(edgeIDs)
	errs := make([]error, len(edgeIDs))
	var wg sync.WaitGroup
	for i, edgeID := range edgeIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.customizeCluster(ref, gen, stats[edgeID])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// customizeCluster is one cluster's share of Phase 1: score the (w, d)
// lattice, select from the cluster's Pareto front under its storage
// limit, distill the selected backbone and send it to the edge.
func (s *System) customizeCluster(ref *nn.BackboneClassifier, gen *prune.Generator, cs ClusterStats) error {
	edgeID := cs.EdgeID
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
	return s.send(transport.KindBackbone, "cloud", edgeName(edgeID), asg)
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

// sweepCandidates scores the (w, d) lattice for one cluster, widths
// ascending and depths in configured order (pareto.SweepCandidates'
// order): loss and accuracy on a cloud probe with masked clones
// (distillation happens only for the winner), energy from the cluster's
// worst-case profile, size from the active parameter count. An invalid
// width or depth scores Loss = 1e9.
//
// A depth-d backbone is the first d blocks of a deeper one, so each
// width takes one clone, run once per probe sample to its deepest valid
// depth; depth d reads block d's output off HiddenStates and finishes
// through the final LayerNorm and the head. That is the arithmetic
// nn.Score does on a depth-d clone, so every candidate is bit-equal to
// scoring it from scratch, at 4 block passes per sample per width of the
// default lattice instead of 1+2+3+4.
func (s *System) sweepCandidates(ref *nn.BackboneClassifier, cs ClusterStats, rng *rand.Rand) []pareto.Candidate {
	probe := data.Probe(s.public, s.Cfg.CloudProbe, rng)
	// The head's Forward writes its own scratch, so this sweep gets its
	// own layer over the reference's read-only weights.
	head := &nn.Linear{In: ref.Head.In, Out: ref.Head.Out, W: ref.Head.W, B: ref.Head.B}
	ws := append([]float64(nil), s.Cfg.Widths...)
	sort.Float64s(ws)
	cands := make([]pareto.Candidate, 0, len(ws)*len(s.Cfg.Depths))
	for _, w := range ws {
		cands = append(cands, s.scoreWidth(ref, head, w, probe, cs)...)
	}
	return cands
}

// scoreWidth scores every configured depth at width w (see
// sweepCandidates), in s.Cfg.Depths order.
func (s *System) scoreWidth(ref *nn.BackboneClassifier, head *nn.Linear, w float64, probe *data.Dataset, cs ClusterStats) []pareto.Candidate {
	depths := s.Cfg.Depths
	invalid := func() []pareto.Candidate {
		cands := make([]pareto.Candidate, len(depths))
		for i, d := range depths {
			cands[i] = pareto.Candidate{W: w, D: d, Loss: 1e9}
		}
		return cands
	}
	cands := invalid()
	bb := ref.Backbone.Clone()
	if bb.ScaleWidth(w) != nil {
		return cands
	}
	headParams := nn.CountParams(ref.Head)
	valid := make([]bool, len(depths))
	deepest := 0
	for i, d := range depths {
		if bb.SetDepth(d) != nil {
			continue
		}
		valid[i] = true
		deepest = max(deepest, d)
		cands[i] = pareto.Candidate{
			W: w, D: d,
			Energy: cs.Profile.Energy(w, d),
			Size:   float64(bb.ActiveParamCount() + headParams),
		}
	}
	if deepest == 0 {
		return cands
	}
	_ = bb.SetDepth(deepest) // accepted in the loop above

	loss := make([]float64, len(depths))
	correct := make([]int, len(depths))
	cls := tensor.New(1, bb.Cfg.DModel)
	dl := make([]float64, head.Out) // CrossEntropy's gradient, never read
	for k, x := range probe.X {
		if _, err := bb.Forward(x); err != nil {
			return invalid()
		}
		hidden := bb.HiddenStates()
		for i, d := range depths {
			if !valid[i] {
				continue
			}
			copy(cls.Data, bb.FinalLN.Forward(hidden[d-1]).Row(0))
			logits := head.Forward(cls).Row(0)
			if nn.Argmax(logits) == probe.Y[k] {
				correct[i]++
			}
			loss[i] += nn.CrossEntropy(dl, logits, probe.Y[k])
		}
	}
	if n := float64(len(probe.X)); n > 0 {
		for i := range cands {
			if valid[i] {
				cands[i].Loss = loss[i] / n
				cands[i].Accuracy = float64(correct[i]) / n
			}
		}
	}
	return cands
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
