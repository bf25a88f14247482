package nas

import (
	"math/rand"
	"reflect"
	"testing"

	"acme/internal/nn"
)

// TestControllerLearnsSyntheticReward verifies the REINFORCE machinery:
// with a reward that pays for choosing conv3 operations, the policy's
// probability of sampling conv3 must rise substantially.
func TestControllerLearnsSyntheticReward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewControllerWithOps(3, 48, 0.02, nil, rng)

	reward := func(a Architecture) float64 {
		var conv3 int
		for _, g := range a.Blocks {
			if g.Op1 == OpConv3 {
				conv3++
			}
			if g.Op2 == OpConv3 {
				conv3++
			}
		}
		return float64(conv3) / float64(2*len(a.Blocks))
	}

	frac := func(samples int) float64 {
		var conv3, total int
		for i := 0; i < samples; i++ {
			a := c.Sample(false).Arch
			for _, g := range a.Blocks {
				if g.Op1 == OpConv3 {
					conv3++
				}
				if g.Op2 == OpConv3 {
					conv3++
				}
				total += 2
			}
		}
		return float64(conv3) / float64(total)
	}

	before := frac(200)
	for iter := 0; iter < 120; iter++ {
		trajs := make([]Trajectory, 8)
		rewards := make([]float64, 8)
		for i := range trajs {
			trajs[i] = c.Sample(true)
			rewards[i] = reward(trajs[i].Arch)
		}
		if err := c.Update(trajs, rewards); err != nil {
			t.Fatal(err)
		}
	}
	after := frac(200)

	if before > 0.4 {
		t.Fatalf("initial conv3 rate %.2f unexpectedly high (uniform should be ~1/7)", before)
	}
	if after < before+0.3 {
		t.Fatalf("controller did not learn: conv3 rate %.2f -> %.2f", before, after)
	}
}

// TestControllerSampleValidity checks every sampled architecture is
// well-formed.
func TestControllerSampleValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewControllerWithOps(4, 32, 0.01, nil, rng)
	for i := 0; i < 100; i++ {
		traj := c.Sample(false)
		if err := traj.Arch.Validate(); err != nil {
			t.Fatalf("sample %d: %v (%v)", i, err, traj.Arch)
		}
		if traj.LogProb >= 0 {
			t.Fatalf("sample %d: non-negative log prob %v", i, traj.LogProb)
		}
	}
}

// TestTapeFreeSampleMatchesTaped: a tape-free draw is the taped draw
// without its record. Two controllers built from one seed, one drawing
// taped and one not, draw the same architectures and log-probabilities
// and leave their rngs in the same state; Update gives every taped
// buffer back.
func TestTapeFreeSampleMatchesTaped(t *testing.T) {
	taped := NewControllerWithOps(4, 32, 0.01, nil, rand.New(rand.NewSource(3)))
	free := NewControllerWithOps(4, 32, 0.01, nil, rand.New(rand.NewSource(3)))
	for i := 0; i < 50; i++ {
		a, b := taped.Sample(true), free.Sample(false)
		if !reflect.DeepEqual(a.Arch, b.Arch) || a.LogProb != b.LogProb {
			t.Fatalf("draw %d: taped %v (%v), tape-free %v (%v)", i, a.Arch, a.LogProb, b.Arch, b.LogProb)
		}
	}
	if a, b := taped.rng.Int63(), free.rng.Int63(); a != b {
		t.Fatalf("rngs diverged: next draws %d and %d", a, b)
	}
	if err := taped.Update(nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := nn.Lent(); n != 0 {
		t.Fatalf("%d scratch slabs still lent after Update", n)
	}
}

// TestTapeFreeSampleAllocatesOnlyItsArchitecture: a draw that needs only
// the architecture runs on the controller's own step buffers.
func TestTapeFreeSampleAllocatesOnlyItsArchitecture(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := NewControllerWithOps(4, 100, 0.01, nil, rand.New(rand.NewSource(4)))
	if n := testing.AllocsPerRun(20, func() { c.Sample(false) }); n != 1 {
		t.Fatalf("tape-free draw made %v allocations, want 1 (its Architecture)", n)
	}
}
