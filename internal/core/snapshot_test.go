package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"acme/internal/aggregate"
	"acme/internal/checkpoint"
	"acme/internal/importance"
	"acme/internal/transport"
	"acme/internal/wire"
)

// snapshotted is l as a snapshot carries it: a deep copy of every field
// the schema frames, without what it leaves out (a shadow's lease, a
// cold shadow's stale layers, the uplink-only top-k fraction).
func snapshotted(l *loopState) loopState {
	framed := func(s shadow) shadow {
		if !s.warm {
			return shadow{}
		}
		out := shadow{warm: true, prev: make([]packedLayer, len(s.prev))}
		for i, p := range s.prev {
			out.prev[i] = packedLayer{mode: p.mode, scale: p.scale, data: slices.Clone(p.data)}
		}
		return out
	}
	c := loopState{
		departed:    slices.Clone(l.departed),
		doneTold:    slices.Clone(l.doneTold),
		rejoinRound: slices.Clone(l.rejoinRound),
		lastSampled: slices.Clone(l.lastSampled),
		shadows:     make([]deltaDecoder, len(l.shadows)),
		lastRound:   l.lastRound,
	}
	for i, d := range l.shadows {
		c.shadows[i] = deltaDecoder{framed(d.shadow)}
	}
	if l.downEncs != nil {
		c.downEncs = make([]*deltaEncoder, len(l.downEncs))
		for i, e := range l.downEncs {
			c.downEncs[i] = &deltaEncoder{mode: e.mode, shadow: framed(e.shadow)}
		}
	}
	if l.prev != nil {
		c.prev = make([]*importance.Set, len(l.prev))
		for i, set := range l.prev {
			if set != nil {
				c.prev[i] = &importance.Set{Layers: make([][]float64, len(set.Layers))}
				for j, row := range set.Layers {
					c.prev[i].Layers[j] = slices.Clone(row)
				}
			}
		}
	}
	return c
}

// TestEdgeSnapshotRoundTripsLoopState: an edge's round-t snapshot bytes
// are its loop state at round t, whatever the loop does to the live
// buffers afterwards. The edge folds three rounds of mixed-quantized
// delta uploads (warm uplink shadows), delta-encodes every downlink
// (warm encoders), keeps the combined sets for the convergence monitor
// and screens every round with the detector armed, which strikes one
// lie; one device departs and a few flags move. After the round-3
// snapshot the live state plays a fourth round, and the bytes restored
// into a fresh edge must still carry every snapshotted field as it was
// at round 3.
func TestEdgeSnapshotRoundTripsLoopState(t *testing.T) {
	if n := reflect.TypeFor[loopState]().NumField(); n != 8 {
		t.Fatalf("loopState has %d fields; snapshotted and the comparison below know 8", n)
	}
	cfg := tinyConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 4
	cfg.Wire.Quantization = QuantMixed
	cfg.ConvergenceEpsilon = 1e-12
	cfg.Fleet.Detect = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sys.Clusters()[0])
	if n < 3 {
		t.Fatalf("cluster 0 has %d devices; the detector scores rounds of 3 or more", n)
	}
	newEdge := func() *edgeState {
		return sys.newEdgeState(0, transport.NewSession(edgeName(0), sys.Net), HeaderPackage{}, aggregate.UniformMatrix(n))
	}
	st := newEdge()
	defer st.release()
	genesis := make(map[string]int, n)
	for p, name := range st.nameByPos {
		genesis[name] = st.idByPos[p]
	}
	st.reg.Seed(genesis)

	rng := rand.New(rand.NewSource(5))
	devs := make([]deltaEncoder, n)
	sets := make([][][]float64, n)
	for p := range sets {
		devs[p] = sys.uplinkEncoder()
		sets[p] = [][]float64{make([]float64, 40), make([]float64, 7), make([]float64, 300)}
	}
	play := func(round int) {
		t.Helper()
		r := &edgeRound{edgeState: st, t: round, folded: make([]bool, n)}
		if err := r.checkpoint(nil); err != nil {
			t.Fatal(err)
		}
		if r.comb, err = aggregate.NewCombinerFor(st.sim, nil); err != nil {
			t.Fatal(err)
		}
		for p, layers := range sets {
			if st.departed[p] {
				continue
			}
			for _, l := range layers {
				for j := range l {
					g := rng.NormFloat64()
					l[j] += g * g
				}
			}
			if p == 0 && round == 2 {
				// One lie, one strike: below the limit, so no eviction.
				layers = [][]float64{slices.Clone(layers[0]), layers[1], layers[2]}
				for j := range layers[0] {
					layers[0][j] *= 50
				}
			}
			up, err := devs[p].encode(st.idByPos[p], round, layers)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := wire.Encode(up)
			if err != nil {
				t.Fatal(err)
			}
			msg := transport.Message{Kind: transport.KindImportanceDelta, From: st.nameByPos[p], Round: round, Payload: payload}
			if err := r.fold(msg); err != nil {
				t.Fatalf("round %d, position %d: %v", round, p, err)
			}
		}
		if err := r.screen(); err != nil {
			t.Fatal(err)
		}
		combined, _, err := r.combine()
		if err != nil {
			t.Fatal(err)
		}
		for p, set := range combined {
			if set != nil && !st.departed[p] {
				if _, err := st.downEncs[p].encodeLayers(set.Layers); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for round := range 3 {
		play(round)
	}
	st.depart(n - 1)
	st.doneTold[0] = true
	st.rejoinRound[1] = 4
	st.lastSampled[1] = 2

	const round = 3
	data, err := st.snapshot(round)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotted(&st.loopState)
	wantDetector, wantMembers, wantEpoch := st.detect.State(), st.reg.Snapshot(), st.reg.Epoch()
	if !want.shadows[0].warm || !want.downEncs[0].warm || want.prev == nil || len(wantDetector.Strikes) == 0 {
		t.Fatal("the loop state at the snapshot is not warm in every part it carries")
	}

	play(round)
	st.departed[0] = true
	st.rejoinRound[1] = -1
	if reflect.DeepEqual(snapshotted(&st.loopState), want) {
		t.Fatal("the live loop state did not move after the snapshot")
	}

	var snap EdgeSnapshot
	if err := checkpoint.Decode(data, &snap); err != nil {
		t.Fatal(err)
	}
	restored := newEdge()
	if err := snap.restoreInto(restored); err != nil {
		t.Fatal(err)
	}
	got := snapshotted(&restored.loopState)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"departed", got.departed, want.departed},
		{"doneTold", got.doneTold, want.doneTold},
		{"rejoinRound", got.rejoinRound, want.rejoinRound},
		{"lastSampled", got.lastSampled, want.lastSampled},
		{"shadows", got.shadows, want.shadows},
		{"downEncs", got.downEncs, want.downEncs},
		{"prev", got.prev, want.prev},
		{"lastRound", got.lastRound, want.lastRound},
		{"detector", restored.detect.State(), wantDetector},
		{"members", restored.reg.Snapshot(), wantMembers},
		{"epoch", restored.reg.Epoch(), wantEpoch},
		{"startRound", restored.startRound, round},
		{"resumedRound", restored.resumedRound, round},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("restored %s differs from its value at round %d:\n got  %+v\nwant %+v", f.name, round, f.got, f.want)
		}
	}
}

// TestRunTagIgnoresDeployment: the run tag names the run, not where its
// snapshots live, so a moved checkpoint directory or a flipped fsync
// keeps it, while another round count or seed changes it.
func TestRunTagIgnoresDeployment(t *testing.T) {
	base := DefaultConfig()
	base.Checkpoint = CheckpointOptions{Path: "ckpt-a"}
	tag := base.runTag()
	for _, ck := range []CheckpointOptions{{Path: "ckpt-b"}, {Path: "ckpt-a", Fsync: true}, {Path: "ckpt-b", Fsync: true}} {
		cfg := base
		cfg.Checkpoint = ck
		if got := cfg.runTag(); got != tag {
			t.Errorf("checkpoint %+v: tag %s, want %s", ck, got, tag)
		}
	}
	for name, edit := range map[string]func(*Config){
		"Phase2Rounds": func(c *Config) { c.Phase2Rounds++ },
		"Seed":         func(c *Config) { c.Seed++ },
	} {
		cfg := base
		edit(&cfg)
		if cfg.runTag() == tag {
			t.Errorf("another %s kept the tag %s", name, tag)
		}
	}
}
