package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestViTBaseParamCount(t *testing.T) {
	a := ViTBase()
	full := a.ParamCount(1, 12)
	// ViT-B is ~86M parameters; the ζ model should land in that band.
	if full < 80e6 || full > 90e6 {
		t.Fatalf("ζ(1,12) = %.1fM, want ≈ 85M", full/1e6)
	}
}

func TestParamCountLinearInDepthAndWidth(t *testing.T) {
	a := ViTBase()
	if got, want := a.ParamCount(1, 6), a.ParamCount(1, 12)/2; math.Abs(got-want) > 1 {
		t.Fatalf("depth linearity: %v vs %v", got, want)
	}
	if got, want := a.ParamCount(0.5, 12), a.ParamCount(1, 12)/2; math.Abs(got-want) > 1 {
		t.Fatalf("width linearity: %v vs %v", got, want)
	}
}

func TestEnergyMonotoneInSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfile(40+60*rng.Float64(), 0.5+rng.Float64(), 9, 3)
		w1, w2 := 0.25+0.5*rng.Float64(), 0
		_ = w2
		d := 1 + rng.Intn(11)
		// More width at the same depth must never cost less energy.
		return p.Energy(w1, d) <= p.Energy(math.Min(w1+0.25, 1), d)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyEquation(t *testing.T) {
	p := Profile{
		GPU: 50, PowerPerUnit: 4, BatchPower: 0.1, Patches: 9,
		BaseLatency: 2, LatencyPerUnit: 0.7, Epochs: 3,
	}
	w, d := 0.5, 4
	power := 50 + 4*0.5*4 + 9*0.1 // G + ΔG·w·d + p·Gβ
	lat := 2 + 0.7*0.5*4          // L + ΔL·w·d
	want := 3.0 * power * lat     // k·P·T
	if got := p.Energy(w, d); math.Abs(got-want) > 1e-9 {
		t.Fatalf("E=%v want %v", got, want)
	}
}

func TestProfileProportionality(t *testing.T) {
	small := NewProfile(40, 1, 9, 3)
	big := NewProfile(80, 1, 9, 3)
	if big.PowerPerUnit <= small.PowerPerUnit {
		t.Fatal("ΔG must scale with G")
	}
	if big.BatchPower <= small.BatchPower {
		t.Fatal("Gβ must scale with G")
	}
}
