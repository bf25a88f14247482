package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// requireNoGoroutinesLeft waits briefly for the goroutine count to come
// back to baseline: a replica goroutine that stop has waited for may
// still be on its way out of the scheduler.
func requireNoGoroutinesLeft(t *testing.T, baseline int, what string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// replicatedRun trains pinnedEpochFixture's model for two epochs at
// parallelism p, then accumulates importances over every sample, and
// returns every bit that leaves behind: the epoch losses, parameters,
// optimizer state, gradients and importances.
func replicatedRun(t *testing.T, p, batch int, shape func(*Backbone)) []uint64 {
	t.Helper()
	runtime.GOMAXPROCS(p)
	c, xs, ys, rng := pinnedEpochFixture(t)
	bb := c.Backbone
	if shape != nil {
		shape(bb)
	}
	opt := NewAdam(2e-3)
	var bits []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			bits = append(bits, math.Float64bits(v))
		}
	}
	for e := 0; e < 2; e++ {
		loss, err := TrainEpoch(c, opt, xs, ys, batch, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(loss)
	}
	bb.SetRecordImportance(true)
	if err := c.AccumulateImportance(xs, ys, rng.Perm(len(xs))); err != nil {
		t.Fatal(err)
	}
	bb.SetRecordImportance(false)
	for _, prm := range c.Params() {
		add(prm.Value.Data...)
		add(prm.Grad.Data...)
		add(opt.state[prm].m...)
		add(opt.state[prm].v...)
	}
	for _, blk := range bb.Blocks {
		add(blk.Attn.HeadImportance...)
		add(blk.FFN.NeuronImportance...)
	}
	return bits
}

// TestReplicatedPassesMatchSerial: TrainEpoch and AccumulateImportance on
// 2, 3 and 4 replicas leave every parameter, moment, gradient and
// importance bit-equal to one replica (the serial loops), at batch 8
// (partial last minibatch), 1 (always serial), 16 (two chunks per
// minibatch) and 12 (a partial last chunk), on a width- and depth-scaled
// model (masked heads and neurons, an inactive block); no replica
// goroutine outlives its pass.
func TestReplicatedPassesMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	scaled := func(bb *Backbone) {
		if err := bb.ScaleWidth(0.6); err != nil {
			t.Fatal(err)
		}
		if err := bb.SetDepth(1); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		batch int
		shape func(*Backbone)
	}{
		{"batch8", 8, nil},
		{"batch1", 1, nil},
		{"batch16", 16, nil},
		{"batch12", 12, nil},
		{"batch8-scaled", 8, scaled},
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range cases {
		want := replicatedRun(t, 1, tc.batch, tc.shape)
		for p := 2; p <= 4; p++ {
			got := replicatedRun(t, p, tc.batch, tc.shape)
			if len(got) != len(want) {
				t.Fatalf("%s at parallelism %d: %d values, want %d", tc.name, p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s at parallelism %d: value %d is %#x, serial %#x", tc.name, p, i, got[i], want[i])
				}
			}
			requireNoGoroutinesLeft(t, baseline, tc.name)
		}
	}
}

// TestReplicatedPassReturnsErrors: a sample of the wrong length in the
// last replica's share fails the pass with the serial loop's error, and
// the replicas still stop.
func TestReplicatedPassReturnsErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	for p := 2; p <= 4; p++ {
		runtime.GOMAXPROCS(p)
		c, xs, ys, _ := pinnedEpochFixture(t)
		// Slot 7 of the first minibatch of 8 is in the last replica's share.
		bad := rand.New(rand.NewSource(1)).Perm(len(xs))[7]
		xs[bad] = xs[bad][:len(xs[bad])-1]
		_, err := TrainEpoch(c, NewAdam(2e-3), xs, ys, 8, rand.New(rand.NewSource(1)))
		if err == nil || !strings.Contains(err.Error(), "sample dim 29 want 30") {
			t.Fatalf("parallelism %d: TrainEpoch returned %v", p, err)
		}
		requireNoGoroutinesLeft(t, baseline, "TrainEpoch")

		idx := []int{0, 1, 2, 3, 4, 5, 6, bad}
		if err := c.AccumulateImportance(xs, ys, idx); err == nil || !strings.Contains(err.Error(), "sample dim") {
			t.Fatalf("parallelism %d: AccumulateImportance returned %v", p, err)
		}
		requireNoGoroutinesLeft(t, baseline, "AccumulateImportance")
	}
}
