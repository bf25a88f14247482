package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"acme"
	"acme/internal/aggregate"
	"acme/internal/core"
	"acme/internal/data"
	"acme/internal/fleet"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
	"acme/internal/transport"
	"acme/internal/wire"
)

// replayDevices is how many of cluster 0's devices the traced pass
// plays. The real run's roles share two cores for ~20 CPU-seconds; a
// serial replay of every role would take as long again, so the pass
// plays the cloud for one cluster, one edge and replayDevices devices,
// and each span's weight says how many real calls it stands for.
const replayDevices = 2

// fullImportanceBatches is the device's per-round minibatch budget
// (core's constant of the same name).
const fullImportanceBatches = 8

// Root spans of the traced pass; every other span hangs under one.
const (
	spanPhase1  = "phase1"
	spanPhase21 = "phase21"
	spanPhase22 = "phase22"
	spanRefine  = "refine"
)

// replaySystem replays cfg serially through the exported calls the
// cloud, edge and device roles make, on sys's datasets and fleet, with
// a span around each call.
func replaySystem(ctx context.Context, tr *Tracer, cfg acme.Config, sys *acme.System) error {
	devices, clusters := sys.Devices(), sys.Clusters()
	members := append([]int(nil), clusters[0]...)
	sort.Ints(members)
	played := members
	if len(played) > replayDevices {
		played = played[:replayDevices]
	}
	perRound := fleet.Sampler{Frac: cfg.Fleet.SampleFrac}.Size(len(members))
	wEdge := float64(len(clusters))
	wDevice := float64(len(devices)) / float64(len(played))
	wRound := float64(len(clusters)*perRound) / float64(len(played))
	public := sys.PublicDataset()
	quant := core.QuantLossless

	// Phase 1, cloud: reference training, then per cluster the sweep,
	// the front grid, distillation and the backbone package.
	p1 := tr.Begin(-1, spanPhase1, 1)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	bb, err := nn.NewBackbone(cfg.Backbone, rng)
	if err != nil {
		return err
	}
	ref := nn.NewBackboneClassifier(bb, cfg.NumClasses, rng)
	opt := nn.NewAdam(1e-3)
	for e := 0; e < cfg.PretrainEpochs; e++ {
		err := tr.Do(p1, "nn.TrainEpoch", 1, func() error {
			_, err := nn.TrainEpoch(ref, opt, public.X, public.Y, 16, rng)
			return err
		})
		if err != nil {
			return err
		}
	}
	gen := prune.NewGenerator(ref, public, cfg.Distill)
	if err := tr.Do(p1, "prune.EnsureImportance", 1, func() error { return gen.EnsureImportance(256, rng) }); err != nil {
		return err
	}
	minStorage, worst := 1e18, devices[members[0]].Profile
	for _, di := range members {
		d := devices[di]
		if d.Storage < minStorage {
			minStorage = d.Storage
		}
		if d.Profile.Energy(1, 1) > worst.Energy(1, 1) {
			worst = d.Profile
		}
	}
	crng := rand.New(rand.NewSource(cfg.Seed + 1000))
	probe := data.Probe(public, cfg.CloudProbe, crng)
	sweep := tr.Begin(p1, "pareto.SweepCandidates", wEdge)
	cands := pareto.SweepCandidates(cfg.Widths, cfg.Depths, sweepEval(tr, sweep, wEdge, ref, probe, worst.Energy))
	tr.End(sweep)
	var selected pareto.Candidate
	err = tr.Do(p1, "pareto.Build+Select", wEdge, func() error {
		grid, err := pareto.Build(cands, cfg.Pareto)
		if err != nil {
			return err
		}
		if selected, err = grid.Select(minStorage); err != nil {
			// As the cloud does: no feasible candidate, take the smallest.
			selected = cands[0]
			for _, c := range cands[1:] {
				if c.Size < selected.Size {
					selected = c
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var student *nn.BackboneClassifier
	err = tr.Do(p1, "prune.Generate", wEdge, func() (err error) {
		student, err = gen.Generate(selected.W, selected.D, crng)
		return err
	})
	if err != nil {
		return err
	}
	var asg core.BackboneAssignment
	_ = tr.Do(p1, "core.EncodeBackbone", wEdge, func() error {
		asg = core.EncodeBackbone(student.Backbone, selected.W, selected.D, selected, quant)
		return nil
	})
	var frame []byte
	if err := tr.Do(p1, "wire.Encode", wEdge, func() (err error) { frame, err = wire.Encode(asg); return err }); err != nil {
		return err
	}
	tr.End(p1)

	// Phase 2-1, edge: the cluster's shared shards, header search, the
	// similarity matrix, and one model package per device.
	p21 := tr.Begin(-1, spanPhase21, 1)
	var backbone *nn.Backbone
	err = tr.Do(p21, "wire.Decode+core.DecodeBackbone", wEdge, func() error {
		var got core.BackboneAssignment
		if err := wire.Decode(frame, &got); err != nil {
			return err
		}
		backbone, err = core.DecodeBackbone(got)
		return err
	})
	if err != nil {
		return err
	}
	erng := rand.New(rand.NewSource(cfg.Seed + 2000))
	drngs := make([]*rand.Rand, len(members))
	shared := &data.Dataset{Name: cfg.Dataset.Name, NumClasses: cfg.NumClasses, Dim: cfg.Dataset.Dim}
	hists := make([][]float64, len(members))
	feats := make([][][]float64, len(members))
	fx := data.NewFeatureExtractor(cfg.Dataset.Dim, cfg.FeatureDim, cfg.Seed+7)
	for i, di := range members {
		drngs[i] = rand.New(rand.NewSource(cfg.Seed + 3000 + int64(devices[di].ID)))
		local := sys.DeviceTrain(di)
		n := int(cfg.SharedFraction * float64(local.Len()))
		if n < 4 {
			n = 4
		}
		shard := data.Probe(local, n, drngs[i])
		shared.X = append(shared.X, shard.X...)
		shared.Y = append(shared.Y, shard.Y...)
		hists[i] = local.ClassHistogram()
		sample := shard.X
		if cfg.ProbeSize > 0 && len(sample) > cfg.ProbeSize {
			sample = sample[:cfg.ProbeSize]
		}
		for _, x := range sample {
			feats[i] = append(feats[i], fx.Extract(x))
		}
	}
	train, val := shared.Split(0.8, erng)
	var header *nas.HeaderModel
	var arch nas.Architecture
	err = tr.Do(p21, "nas.Searcher.Search", wEdge, func() error {
		searcher, err := nas.NewSearcher(cfg.Search, backbone, cfg.NumClasses, train, val, erng)
		if err != nil {
			return err
		}
		if arch, _, err = searcher.Search(); err != nil {
			return err
		}
		header, err = searcher.BuildFinal(arch)
		return err
	})
	if err != nil {
		return err
	}
	var sim [][]float64
	err = tr.Do(p21, "aggregate.MatrixFor", wEdge, func() (err error) {
		sim, err = aggregate.MatrixFor(aggregate.Wasserstein, len(members), hists, feats, erng, cfg.DistanceScale)
		return err
	})
	if err != nil {
		return err
	}
	headers := make([]*nas.HeaderModel, len(played))
	for k := range played {
		var pkgFrame []byte
		err := tr.Do(p21, "core.EncodeHeader+wire.Encode", wDevice, func() (err error) {
			pkg := core.EncodeHeader(header, quant)
			pkg.Backbone = core.EncodeBackbone(backbone, asg.W, asg.D, asg.Candidate, quant)
			pkgFrame, err = wire.Encode(pkg)
			return err
		})
		if err != nil {
			return err
		}
		err = tr.Do(p21, "wire.Decode+core.DecodeHeader", wDevice, func() error {
			var pkg core.HeaderPackage
			if err := wire.Decode(pkgFrame, &pkg); err != nil {
				return err
			}
			deviceBackbone, err := core.DecodeBackbone(pkg.Backbone)
			if err != nil {
				return err
			}
			pkg.HeaderCfg.TrainBackbone = false
			headers[k], err = core.DecodeHeader(pkg, deviceBackbone)
			return err
		})
		if err != nil {
			return err
		}
	}
	tr.End(p21)

	// Device refinement before the loop.
	refine := tr.Begin(-1, spanRefine, 1)
	for k, di := range played {
		local, test := sys.DeviceTrain(di), sys.DeviceTest(di)
		err := tr.Do(refine, "nas.HeaderModel.TrainLocal", wDevice, func() error {
			return headers[k].TrainLocal(local, cfg.LocalEpochs, cfg.LocalBatch, cfg.LocalLR, drngs[k])
		})
		if err != nil {
			return err
		}
		if err := tr.Do(refine, "nn.Evaluate", wDevice, func() error { _, err := nn.Evaluate(headers[k], test.X, test.Y); return err }); err != nil {
			return err
		}
	}
	tr.End(refine)

	// Phase 2-2: the importance loop between the played devices and
	// their edge, over a memory network and a session gather.
	if err := replayLoop(ctx, tr, cfg, sys, played, drngs, headers, subMatrix(sim, len(played)), wRound); err != nil {
		return err
	}

	refine = tr.Begin(-1, spanRefine, 1)
	for k, di := range played {
		test := sys.DeviceTest(di)
		if err := tr.Do(refine, "nn.Evaluate", wDevice, func() error { _, err := nn.Evaluate(headers[k], test.X, test.Y); return err }); err != nil {
			return err
		}
	}
	tr.End(refine)
	return nil
}

// replayLoop plays cfg.Phase2Rounds rounds of the importance exchange.
func replayLoop(ctx context.Context, tr *Tracer, cfg acme.Config, sys *acme.System, played []int, drngs []*rand.Rand, headers []*nas.HeaderModel, sim [][]float64, weight float64) error {
	p22 := tr.Begin(-1, spanPhase22, 1)
	defer tr.End(p22)
	codec := loopCodec{delta: cfg.Wire.DeltaImportance, entropy: cfg.Wire.Entropy, tr: tr, weight: weight}
	mem := transport.NewMemory()
	mem.Register(edgeNode, 4*len(played))
	names := make([]string, len(played))
	for k := range played {
		names[k] = fmt.Sprintf("device-%d", k)
		mem.Register(names[k], 4)
	}
	ses := transport.NewSession(edgeNode, mem)
	accs := make([]*importance.Accumulator, len(played))
	upPrev := make([][][]byte, len(played))
	upShadow := make([][][]byte, len(played))
	downPrev := make([][][]byte, len(played))
	downShadow := make([][][]byte, len(played))
	arena := &wire.Arena{AliasInput: true}
	var prev []*importance.Set
	for t := 0; t < cfg.Phase2Rounds; t++ {
		for k, di := range played {
			local := sys.DeviceTrain(di)
			if accs[k] == nil {
				accs[k] = importance.NewAccumulator()
			}
			err := tr.Do(p22, "importance.Accumulator.FoldBatches", weight, func() error {
				accs[k].Reset()
				_, err := accs[k].FoldBatches(headers[k], local, cfg.LocalBatch, fullImportanceBatches, drngs[k])
				return err
			})
			if err != nil {
				return err
			}
			var set *importance.Set
			if err := tr.Do(p22, "importance.Accumulator.Average", weight, func() (err error) { set, err = accs[k].Average(); return err }); err != nil {
				return err
			}
			var f32 [][]float32
			_ = tr.Do(p22, "bench.narrow", weight, func() error { f32 = narrow(set.Layers); return nil })
			kind, payload, raw, err := codec.encodeUp(p22, k, t, f32, &upPrev[k])
			if err != nil {
				return err
			}
			err = tr.Do(p22, "transport.Send", weight, func() error {
				return mem.Send(transport.Message{Kind: kind, From: names[k], To: edgeNode, Round: t, Payload: payload, Raw: raw})
			})
			if err != nil {
				return err
			}
		}

		comb, err := aggregate.NewCombiner(sim)
		if err != nil {
			return err
		}
		gather := tr.Begin(p22, "transport.Gather", weight)
		_, err = ses.Gather(ctx, transport.GatherSpec{
			Round:  t,
			Kinds:  []transport.Kind{transport.KindImportanceSet, transport.KindImportanceDelta},
			Expect: names,
			Label:  fmt.Sprintf("replay round %d", t),
			OnMessage: func(msg transport.Message) error {
				k, layers, err := codec.decodeUp(gather, msg, arena, func(k int) *[][]byte { return &upShadow[k] })
				if err != nil {
					return err
				}
				return tr.Do(gather, "aggregate.Combiner.Add", weight, func() error {
					return comb.Add(k, &importance.Set{Layers: layers})
				})
			},
		})
		tr.End(gather)
		if err != nil {
			return err
		}
		var combined []*importance.Set
		err = tr.Do(p22, "aggregate.Combiner.Result", weight, func() (err error) { combined, _, err = comb.Result(prev); return err })
		if err != nil {
			return err
		}
		prev = combined
		for k := range played {
			kind, payload, raw, err := codec.encodeDown(p22, t, combined[k].Layers, cfg.DiscardPerRound, t == cfg.Phase2Rounds-1, &downPrev[k])
			if err != nil {
				return err
			}
			err = tr.Do(p22, "transport.Send", weight, func() error {
				return mem.Send(transport.Message{Kind: kind, From: edgeNode, To: names[k], Round: t, Payload: payload, Raw: raw})
			})
			if err != nil {
				return err
			}
		}

		for k, di := range played {
			var msg transport.Message
			if err := tr.Do(p22, "transport.Recv", weight, func() (err error) { msg, err = mem.Recv(ctx, names[k]); return err }); err != nil {
				return err
			}
			layers, discard, err := codec.decodeDown(p22, msg, &downShadow[k])
			if err != nil {
				return err
			}
			err = tr.Do(p22, "nas.HeaderModel.ApplyImportance", weight, func() error {
				return headers[k].ApplyImportance(&importance.Set{Layers: layers}, discard)
			})
			if err != nil {
				return err
			}
			err = tr.Do(p22, "nas.HeaderModel.TrainLocal", weight, func() error {
				return headers[k].TrainLocal(sys.DeviceTrain(di), 1, cfg.LocalBatch, cfg.LocalLR, drngs[k])
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepEval is the candidate evaluation the cloud runs in its sweep: a
// width- and depth-masked clone scored on a probe of the public data,
// each scoring call a span under parent.
func sweepEval(tr *Tracer, parent int, weight float64, ref *nn.BackboneClassifier, probe *data.Dataset, energy func(w float64, d int) float64) func(w float64, d int) pareto.Candidate {
	return func(w float64, d int) pareto.Candidate {
		cand := pareto.Candidate{W: w, D: d, Loss: 1e9}
		bb := ref.Backbone.Clone()
		if bb.ScaleWidth(w) != nil || bb.SetDepth(d) != nil {
			return cand
		}
		clone := &nn.BackboneClassifier{Backbone: bb, Head: ref.Head}
		var loss float64
		if tr.Do(parent, "nn.MeanLoss", weight, func() (err error) { loss, err = nn.MeanLoss(clone, probe.X, probe.Y); return err }) != nil {
			return cand
		}
		cand.Loss = loss
		_ = tr.Do(parent, "nn.Evaluate", weight, func() error { cand.Accuracy, _ = nn.Evaluate(clone, probe.X, probe.Y); return nil })
		cand.Energy = energy(w, d)
		cand.Size = float64(bb.ActiveParamCount() + nn.CountParams(ref.Head))
		return cand
	}
}

// subMatrix is the leading n x n block of sim with its rows rescaled to
// sum to 1, the similarity of the played devices among themselves.
func subMatrix(sim [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), sim[i][:n]...)
		var mass float64
		for _, w := range out[i] {
			mass += w
		}
		for j := range out[i] {
			out[i][j] /= mass
		}
	}
	return out
}

// budget is the traced pass reduced to the phase budget: weighted self
// time per root span, in seconds.
type budget map[string]float64

// phaseBudget sums each span's weighted self time into its root's name.
func phaseBudget(spans []Span) budget {
	self := SelfTimes(spans)
	root := make([]int, len(spans))
	b := budget{}
	for i, s := range spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		b[spans[root[i]].Name] += float64(self[i]) * s.Weight / 1e9
	}
	return b
}

func (b budget) total() float64 {
	var s float64
	for _, v := range b {
		s += v
	}
	return s
}

// printSelfTable prints the n largest of rows, which SelfTable sorted.
func printSelfTable(rows []SelfRow, n int) {
	var total float64
	for _, r := range rows {
		total += r.SelfNS
	}
	fmt.Printf("%-40s %8s %10s %6s\n", "span (weighted self time)", "calls", "self_ms", "share")
	for i, r := range rows {
		if i == n {
			break
		}
		fmt.Printf("%-40s %8d %10.1f %5.1f%%\n", r.Name, r.Calls, r.SelfNS/1e6, 100*r.SelfNS/total)
	}
}
