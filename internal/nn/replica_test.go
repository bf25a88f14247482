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
// back to baseline: a replica goroutine that Release has waited for may
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
// returns every bit that leaves behind (see leftBits). Every call gives
// back all the scratch it borrowed.
func replicatedRun(t *testing.T, p, batch int, shape func(*Backbone)) []uint64 {
	t.Helper()
	runtime.GOMAXPROCS(p)
	c, xs, ys, rng := pinnedEpochFixture(t)
	if shape != nil {
		shape(c.Backbone)
	}
	lent := Lent()
	opt := NewAdam(2e-3)
	var losses []float64
	for e := 0; e < 2; e++ {
		loss, err := TrainEpoch(c, opt, xs, ys, batch, rng)
		if err != nil {
			t.Fatal(err)
		}
		requireLent(t, lent, "TrainEpoch")
		losses = append(losses, loss)
	}
	c.Backbone.SetRecordImportance(true)
	if err := c.AccumulateImportance(xs, ys, rng.Perm(len(xs))); err != nil {
		t.Fatal(err)
	}
	requireLent(t, lent, "AccumulateImportance")
	c.Backbone.SetRecordImportance(false)
	return leftBits(c, opt, losses)
}

// serialRun is replicatedRun's reference, a per-sample loop with no
// records set: per minibatch, forward, CrossEntropy, the logits gradient
// multiplied by 1/len(mb) and Backward for each sample, then Adam.Step;
// then a forward and backward pass per sample that accumulates the
// importances directly.
func serialRun(t *testing.T, batch int, shape func(*Backbone)) []uint64 {
	t.Helper()
	c, xs, ys, rng := pinnedEpochFixture(t)
	if shape != nil {
		shape(c.Backbone)
	}
	opt := NewAdam(2e-3)
	sample := func(i int, scale float64) float64 {
		logits, err := c.Forward(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		dl := make([]float64, len(logits))
		loss := CrossEntropy(dl, logits, ys[i])
		for j := range dl {
			dl[j] *= scale
		}
		c.Backward(dl)
		return loss
	}
	var losses []float64
	for e := 0; e < 2; e++ {
		order := rng.Perm(len(xs))
		var total float64
		for start := 0; start < len(order); start += batch {
			mb := order[start:min(start+batch, len(order))]
			ZeroGrads(c)
			for _, i := range mb {
				total += sample(i, 1/float64(len(mb)))
			}
			opt.Step(c.Params())
		}
		losses = append(losses, total/float64(len(xs)))
	}
	c.Backbone.SetRecordImportance(true)
	for _, i := range rng.Perm(len(xs)) {
		sample(i, 1)
	}
	c.Backbone.SetRecordImportance(false)
	ZeroGrads(c)
	return leftBits(c, opt, losses)
}

// leftBits is every bit a run leaves behind: the epoch losses,
// parameters, optimizer state, gradients and importances.
func leftBits(c *BackboneClassifier, opt *Adam, losses []float64) []uint64 {
	var bits []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			bits = append(bits, math.Float64bits(v))
		}
	}
	add(losses...)
	for _, prm := range c.Params() {
		add(prm.Value.Data...)
		add(prm.Grad.Data...)
		add(opt.state[prm].m...)
		add(opt.state[prm].v...)
	}
	for _, blk := range c.Backbone.Blocks {
		add(blk.Attn.HeadImportance...)
		add(blk.FFN.NeuronImportance...)
	}
	return bits
}

func requireLent(t *testing.T, want int, what string) {
	t.Helper()
	if n := Lent(); n != want {
		t.Fatalf("%s: %d scratch slabs lent, %d before", what, n, want)
	}
}

// TestReplicatedPassesMatchSerial: TrainEpoch and AccumulateImportance on
// 1 to 4 replicas leave every parameter, moment, gradient and importance
// bit-equal to a per-sample loop that records nothing, at batch 8
// (partial last minibatch), 1 (one replica), 16 (two chunks per
// minibatch) and 12 (a partial last chunk), and on a width- and
// depth-scaled model (masked heads and neurons, an inactive block); no
// replica goroutine outlives its pass.
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
		want := serialRun(t, tc.batch, tc.shape)
		for p := 1; p <= 4; p++ {
			got := replicatedRun(t, p, tc.batch, tc.shape)
			if len(got) != len(want) {
				t.Fatalf("%s at parallelism %d: %d values, want %d", tc.name, p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s at parallelism %d: value %d is %#x, per sample %#x", tc.name, p, i, got[i], want[i])
				}
			}
			requireNoGoroutinesLeft(t, baseline, tc.name)
		}
	}
}

// TestReplicatedPassReturnsErrors: a sample of the wrong length in the
// last replica's share fails the pass with the serial loop's error, the
// replicas still stop, and every borrowed slab goes back.
func TestReplicatedPassReturnsErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	for p := 2; p <= 4; p++ {
		runtime.GOMAXPROCS(p)
		c, xs, ys, _ := pinnedEpochFixture(t)
		lent := Lent()
		// Slot 7 of the first minibatch of 8 is in the last replica's share.
		bad := rand.New(rand.NewSource(1)).Perm(len(xs))[7]
		xs[bad] = xs[bad][:len(xs[bad])-1]
		_, err := TrainEpoch(c, NewAdam(2e-3), xs, ys, 8, rand.New(rand.NewSource(1)))
		if err == nil || !strings.Contains(err.Error(), "sample dim 29 want 30") {
			t.Fatalf("parallelism %d: TrainEpoch returned %v", p, err)
		}
		requireNoGoroutinesLeft(t, baseline, "TrainEpoch")
		requireLent(t, lent, "TrainEpoch")

		idx := []int{0, 1, 2, 3, 4, 5, 6, bad}
		if err := c.AccumulateImportance(xs, ys, idx); err == nil || !strings.Contains(err.Error(), "sample dim") {
			t.Fatalf("parallelism %d: AccumulateImportance returned %v", p, err)
		}
		requireNoGoroutinesLeft(t, baseline, "AccumulateImportance")
		requireLent(t, lent, "AccumulateImportance")
	}
}
