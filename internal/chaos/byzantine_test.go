package chaos

import (
	"math"
	"testing"
)

func honestLayers() [][]float64 {
	return [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6}}
}

func TestParseStrategy(t *testing.T) {
	for _, ok := range []string{"", "inflate", "fabricate", "replay"} {
		if _, err := ParseStrategy(ok); err != nil {
			t.Fatalf("ParseStrategy(%q): %v", ok, err)
		}
	}
	if _, err := ParseStrategy("omniscient"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestLiarDeterministicAndNonMutating(t *testing.T) {
	for _, strat := range []Strategy{StrategyInflate, StrategyFabricate, StrategyReplay} {
		a := &Liar{Strategy: strat, Prob: 0.6, Seed: 5, Device: 3}
		b := &Liar{Strategy: strat, Prob: 0.6, Seed: 5, Device: 3}
		for round := 0; round < 12; round++ {
			in := honestLayers()
			outA := a.Corrupt(round, honestLayers())
			outB := b.Corrupt(round, honestLayers())
			for l := range outA {
				for i := range outA[l] {
					if outA[l][i] != outB[l][i] {
						t.Fatalf("%s round %d: same seed diverged at [%d][%d]", strat, round, l, i)
					}
				}
			}
			// The input must never be mutated, lying or not.
			got := a.Corrupt(round, in)
			ref := honestLayers()
			for l := range in {
				for i := range in[l] {
					if in[l][i] != ref[l][i] {
						t.Fatalf("%s round %d: Corrupt mutated its input", strat, round)
					}
				}
			}
			_ = got
		}
	}
}

func TestLiarStrategies(t *testing.T) {
	// Prob 1: every round lies.
	inflate := &Liar{Strategy: StrategyInflate, Prob: 1, Seed: 1, Device: 0}
	out := inflate.Corrupt(0, honestLayers())
	if out[0][0] != 1 {
		t.Fatalf("inflate by %v: got %v, want 1", factor, out[0][0])
	}

	fab := &Liar{Strategy: StrategyFabricate, Prob: 1, Seed: 1, Device: 0}
	out = fab.Corrupt(0, honestLayers())
	same := true
	for l, row := range out {
		for i, v := range row {
			if v != honestLayers()[l][i] {
				same = false
			}
			if v < 0 || v >= 0.6*factor {
				t.Fatalf("fabricated value %v outside [0, %v)", v, 0.6*factor)
			}
		}
	}
	if same {
		t.Fatal("fabricate returned the honest upload")
	}

	// Replay: Prob 0.5 over enough rounds gives both honest rounds
	// (which refresh prev) and lying rounds (which resend it).
	rep := &Liar{Strategy: StrategyReplay, Prob: 0.5, Seed: 9, Device: 1}
	var prevHonest [][]float64
	replayed := false
	for round := 0; round < 40; round++ {
		in := honestLayers()
		// Make each round's honest upload distinct.
		in[0][0] = float64(round)
		out := rep.Corrupt(round, in)
		if out[0][0] != float64(round) {
			// Lied: must equal the most recent honest upload.
			if prevHonest == nil || out[0][0] != prevHonest[0][0] {
				t.Fatalf("round %d: replayed %v, want last honest %v", round, out[0][0], prevHonest)
			}
			replayed = true
		} else {
			prevHonest = [][]float64{{float64(round)}}
		}
	}
	if !replayed {
		t.Fatal("replay liar never replayed in 40 rounds at prob 0.5")
	}

	// Replay at Prob 1: no honest rounds ever refresh prev, so the
	// first upload primes the replay source and every later round
	// re-sends it frozen — the free-rider never trains again.
	frozen := &Liar{Strategy: StrategyReplay, Prob: 1, Seed: 3, Device: 2}
	first := honestLayers()
	first[0][0] = 42
	out = frozen.Corrupt(0, first)
	if out[0][0] != 42 {
		t.Fatalf("priming round altered the upload: %v", out[0][0])
	}
	for round := 1; round < 5; round++ {
		in := honestLayers()
		in[0][0] = float64(round)
		out = frozen.Corrupt(round, in)
		if out[0][0] != 42 {
			t.Fatalf("round %d: frozen replay sent %v, want the primed 42", round, out[0][0])
		}
	}
}

func TestDetectorFlagsAndEvicts(t *testing.T) {
	d := &Detector{}
	honest := func() []float64 { return []float64{0.1, 0.2, 0.3, 0.4, 0.5} }
	inflated := make([]float64, 5)
	for i, v := range honest() {
		inflated[i] = v * 10
	}
	round := func() Verdict {
		return d.Inspect(map[int][]float64{
			0: inflated, 1: honest(), 2: honest(), 3: honest(),
		})
	}
	v := round()
	if len(v.Suspects) != 1 || v.Suspects[0] != 0 {
		t.Fatalf("round 0 suspects %v (scores %v, threshold %v), want [0]", v.Suspects, v.Scores, v.Threshold)
	}
	if len(v.Evicted) != 0 {
		t.Fatalf("evicted %v after one strike, strike limit is 2", v.Evicted)
	}
	v = round()
	if len(v.Evicted) != 1 || v.Evicted[0] != 0 {
		t.Fatalf("round 1 evicted %v, want [0] at the default strike limit", v.Evicted)
	}
	if d.strikes[0] != 2 {
		t.Fatalf("strikes(0) = %d, want 2", d.strikes[0])
	}
	// Eviction is reported once.
	v = round()
	if len(v.Evicted) != 0 {
		t.Fatalf("device re-evicted: %v", v.Evicted)
	}
}

func TestDetectorSkipsSmallAndCleanRounds(t *testing.T) {
	d := &Detector{}
	v := d.Inspect(map[int][]float64{0: {1}, 1: {2}})
	if len(v.Scores) != 0 || len(v.Suspects) != 0 {
		t.Fatalf("two-device round scored: %+v", v)
	}
	// All-honest round: nobody flagged.
	honest := []float64{0.1, 0.2, 0.3}
	v = d.Inspect(map[int][]float64{0: honest, 1: honest, 2: honest, 3: honest})
	if len(v.Suspects) != 0 {
		t.Fatalf("clean round flagged %v (threshold %v, scores %v)", v.Suspects, v.Threshold, v.Scores)
	}
}

func TestDownsample(t *testing.T) {
	layers := [][]float64{make([]float64, 700), make([]float64, 500)}
	for l := range layers {
		for i := range layers[l] {
			layers[l][i] = float64(l*1000 + i)
		}
	}
	out := Downsample(layers, 512)
	if len(out) > 512 {
		t.Fatalf("downsampled to %d values, budget 512", len(out))
	}
	if len(out) < 512/2 {
		t.Fatalf("downsample kept only %d of a 512 budget", len(out))
	}
	// Deterministic.
	out2 := Downsample(layers, 512)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("downsample is not deterministic")
		}
	}
	if Downsample(nil, 16) != nil {
		t.Fatal("empty input should downsample to nil")
	}
	small := Downsample(layers, math.MaxInt)
	if len(small) != 1200 {
		t.Fatalf("unbounded budget kept %d of 1200 values", len(small))
	}
}
