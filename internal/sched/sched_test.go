package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"acme/internal/fleet"
)

// mapSource serves fixed telemetry per node.
type mapSource map[string]Telemetry

func (m mapSource) Telemetry(node string, round int) Telemetry { return m[node] }

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("device-%d", i)
	}
	return out
}

// TestUniformDelegationProperty is the satellite property test: with
// scoring disabled (Uniform, or no telemetry source) the scheduler
// must reproduce fleet.Sampler's draws exactly — any weights, any
// frac, any round, any live set.
func TestUniformDelegationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		frac := rng.Float64() * 1.2 // include disabled fracs
		seed := rng.Int63()
		round := rng.Intn(50)
		n := rng.Intn(12)
		live := names(n)
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		ref := fleet.Sampler{Frac: frac, Seed: seed}.Sample(round, live)
		for _, s := range []*Scheduler{
			{Frac: frac, Seed: seed, Uniform: true, Weights: FlatWeights(), Source: mapSource{}},
			{Frac: frac, Seed: seed}, // no source at all
		} {
			got := s.Sample(round, live)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d: scheduler draw %v != sampler draw %v", trial, got, ref)
			}
		}
	}
}

func TestSampleDeterministicUnderInputOrder(t *testing.T) {
	src := mapSource{}
	live := names(8)
	rng := rand.New(rand.NewSource(7))
	for _, nm := range live {
		src[nm] = Telemetry{
			Gain: rng.Float64(), Staleness: float64(rng.Intn(4)),
			UpBytes: 1000 + 5000*rng.Float64(), Warm: rng.Intn(2) == 0,
			WallSeconds: 0.01 * rng.Float64(), LatencyPrior: rng.Float64(),
			Energy: 100 * rng.Float64(),
		}
	}
	s := &Scheduler{Frac: 0.5, Seed: 11, Source: src}
	ref := s.Sample(3, live)
	if len(ref) != 4 {
		t.Fatalf("want 4 picks, got %v", ref)
	}
	if !sort.StringsAreSorted(ref) {
		t.Fatalf("picks not sorted: %v", ref)
	}
	for trial := 0; trial < 20; trial++ {
		shuf := append([]string(nil), live...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		if got := s.Sample(3, shuf); !reflect.DeepEqual(got, ref) {
			t.Fatalf("input order changed the pick: %v vs %v", got, ref)
		}
	}
}

func TestSampleAvoidsStraggler(t *testing.T) {
	src := mapSource{}
	live := names(6)
	for _, nm := range live {
		src[nm] = Telemetry{Gain: 0.5, Staleness: 1, UpBytes: 1000, Warm: true, WallSeconds: 0.01, Energy: 50}
	}
	// One member is two orders of magnitude slower than the fleet
	// median — well past the slowness-class guard band.
	tel := src["device-3"]
	tel.WallSeconds = 1.0
	src["device-3"] = tel
	s := &Scheduler{Frac: 0.5, Seed: 1, Source: src}
	for round := 0; round < 6; round++ {
		for _, nm := range s.Sample(round, live) {
			if nm == "device-3" {
				t.Fatalf("round %d picked the straggler", round)
			}
		}
	}
}

func TestSamplePrefersWarmChains(t *testing.T) {
	src := mapSource{}
	live := names(6)
	for i, nm := range live {
		warm := i < 3
		tel := Telemetry{Gain: 0.5, Staleness: 1, UpBytes: 1000, Warm: warm, WallSeconds: 0.01, Energy: 50}
		if !warm {
			tel.Staleness = 2
			tel.UpBytes = 9000 // stale EWMA from its last dense upload
		}
		src[nm] = tel
	}
	picks := (&Scheduler{Frac: 0.5, Seed: 5, Weights: Weights{Bytes: 1}, Source: src}).Sample(2, live)
	want := []string{"device-0", "device-1", "device-2"}
	if !reflect.DeepEqual(picks, want) {
		t.Fatalf("bytes-weighted pick %v, want the warm chains %v", picks, want)
	}
}

func TestSampleStalenessPreventsStarvation(t *testing.T) {
	src := mapSource{}
	live := names(4)
	for i, nm := range live {
		tel := Telemetry{Gain: 0.4, Staleness: 1, UpBytes: 1000, Warm: true, WallSeconds: 0.01, Energy: 50}
		if i == 3 {
			// Long-idle member: same movement history, much staler.
			tel.Staleness = 8
			tel.Warm = false
			tel.UpBytes = 0
		}
		src[nm] = tel
	}
	picks := (&Scheduler{Frac: 0.25, Seed: 2, Weights: Weights{Gain: 1}, Source: src}).Sample(9, live)
	if !reflect.DeepEqual(picks, []string{"device-3"}) {
		t.Fatalf("gain-weighted pick %v, want the stale member", picks)
	}
}

func TestSampleNonFiniteTelemetry(t *testing.T) {
	src := mapSource{}
	live := names(5)
	for i, nm := range live {
		tel := Telemetry{Gain: 0.5, Staleness: 1, UpBytes: 1000, Warm: true, WallSeconds: 0.01, Energy: 50}
		switch i {
		case 0:
			tel.Energy = math.NaN()
		case 1:
			tel.Energy = math.Inf(1)
			tel.Gain = math.NaN()
		}
		src[nm] = tel
	}
	s := &Scheduler{Frac: 0.6, Seed: 3, Source: src}
	ref := s.Sample(1, live)
	if len(ref) != 3 {
		t.Fatalf("want 3 picks, got %v", ref)
	}
	for trial := 0; trial < 5; trial++ {
		if got := s.Sample(1, live); !reflect.DeepEqual(got, ref) {
			t.Fatalf("non-finite telemetry broke determinism: %v vs %v", got, ref)
		}
	}
	// The poisoned members pin to the worst energy cell and must lose
	// to an otherwise-identical finite member under energy weighting.
	picks := (&Scheduler{Frac: 0.4, Seed: 3, Weights: Weights{Energy: 1}, Source: src}).Sample(1, live)
	for _, nm := range picks {
		if nm == "device-0" || nm == "device-1" {
			t.Fatalf("energy-weighted pick %v includes a non-finite member", picks)
		}
	}
}

func TestParseWeights(t *testing.T) {
	cases := []struct {
		in   string
		want Weights
		err  bool
	}{
		{"", Weights{}, false},
		{"1,2,0.5,1", Weights{Gain: 1, Bytes: 2, Latency: 0.5, Energy: 1}, false},
		{"gain=2", Weights{Gain: 2, Bytes: 1, Latency: 1, Energy: 1}, false},
		{"gain=2,energy=0", Weights{Gain: 2, Bytes: 1, Latency: 1, Energy: 0}, false},
		{"1,2", Weights{}, true},
		{"1,2,3,4,5", Weights{}, true},
		{"speed=1", Weights{}, true},
		{"gain=-1", Weights{}, true},
		{"gain=NaN", Weights{}, true},
	}
	for _, c := range cases {
		got, err := ParseWeights(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseWeights(%q) err=%v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseWeights(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	w, err := ParseWeights(FlatWeights().String())
	if err != nil || w != FlatWeights() {
		t.Fatalf("String round-trip: %+v, %v", w, err)
	}
}

func TestWeightsZeroValueIsFlat(t *testing.T) {
	if (Weights{}).vec() != [numObj]float64{1, 1, 1, 1} {
		t.Fatalf("zero-value weights must normalize to flat")
	}
}

// TestSlowClassFloor: the class is a ratio to the fleet median, except
// that a wall under slowFloor is never slow. Without the floor a fleet
// answering in tens of microseconds classes a member by one goroutine
// preemption, and the picks follow the host's scheduler.
func TestSlowClassFloor(t *testing.T) {
	cases := []struct {
		name         string
		wall, median float64
		want         int
	}{
		{"preempted member of a microsecond fleet", 900e-6, 40e-6, 0},
		{"just under the floor", slowFloor - 1e-9, 1e-6, 0},
		{"at the floor, past the guard", slowFloor, 1e-3, 3},
		{"past the floor, inside the guard", 0.4, 0.1, 0},
		{"straggler", 0.8, 0.01, 4},
		{"one doubling past the guard", 0.2, 0.01, 2},
		{"no median yet", 5, 0, 0},
		{"unmeasurable", math.Inf(1), 0.01, 1},
		{"not a number", math.NaN(), 0.01, 1},
	}
	for _, c := range cases {
		if got := slowClass(c.wall, c.median); got != c.want {
			t.Errorf("%s: slowClass(%g, %g) = %d, want %d", c.name, c.wall, c.median, got, c.want)
		}
	}
}
