package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("device-%d", i)
	}
	return out
}

func TestSamplerDeterministic(t *testing.T) {
	s := Sampler{Frac: 0.3, Seed: 42}
	live := names(20)
	for round := 0; round < 5; round++ {
		a := s.Sample(round, live)
		// Same round, shuffled input order: the draw must canonicalize.
		shuffled := append([]string(nil), live...)
		rand.New(rand.NewSource(int64(round))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := s.Sample(round, shuffled)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: input order changed the sample: %v vs %v", round, a, b)
		}
		if want := int(math.Ceil(0.3 * 20)); len(a) != want {
			t.Fatalf("round %d: sampled %d members, want %d", round, len(a), want)
		}
		seen := map[string]bool{}
		for _, m := range live {
			seen[m] = true
		}
		for _, m := range a {
			if !seen[m] {
				t.Fatalf("round %d sampled %q outside the live set", round, m)
			}
		}
	}
	// Different rounds must not all pick the same subset.
	if reflect.DeepEqual(s.Sample(0, live), s.Sample(1, live)) &&
		reflect.DeepEqual(s.Sample(1, live), s.Sample(2, live)) {
		t.Fatal("three consecutive rounds drew identical subsets")
	}
	// A different seed must eventually diverge.
	other := Sampler{Frac: 0.3, Seed: 43}
	diverged := false
	for round := 0; round < 8; round++ {
		if !reflect.DeepEqual(s.Sample(round, live), other.Sample(round, live)) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 drew identical subsets for 8 rounds")
	}
}

func TestSamplerDisabledAndBounds(t *testing.T) {
	for _, frac := range []float64{0, 1, 1.5, -0.2} {
		s := Sampler{Frac: frac, Seed: 1}
		if s.Enabled() {
			t.Fatalf("frac %v must disable sampling", frac)
		}
		got := s.Sample(3, []string{"b", "a"})
		if !reflect.DeepEqual(got, []string{"a", "b"}) {
			t.Fatalf("disabled sampler returned %v", got)
		}
	}
	// Tiny fractions still invite at least one member.
	s := Sampler{Frac: 0.001, Seed: 1}
	if got := s.Sample(0, names(5)); len(got) != 1 {
		t.Fatalf("floor sample size %d, want 1", len(got))
	}
	if got := s.Sample(0, nil); len(got) != 0 {
		t.Fatalf("empty live set sampled %v", got)
	}
}

func TestRegistryGatherHistory(t *testing.T) {
	r := NewRegistry()
	r.Seed(map[string]int{"device-0": 0})
	r.RecordGather("device-0", 0, 100, 2*time.Millisecond)
	r.RecordGather("device-0", 1, 150, 3*time.Millisecond)
	m, ok := r.members["device-0"]
	if !ok {
		t.Fatal("member lost")
	}
	if m.Rounds != 2 || m.LastRound != 1 || m.Bytes != 250 || m.Wall != 5*time.Millisecond {
		t.Fatalf("gather history: %+v", m)
	}
	// History does not bump the membership epoch.
	if r.epoch != 1 {
		t.Fatalf("gather history bumped epoch to %d", r.epoch)
	}
}
