package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"acme/internal/wire"
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

func TestRegistryEpochAndLiveness(t *testing.T) {
	r := NewRegistry()
	if r.Epoch() != 0 || len(r.Live()) != 0 {
		t.Fatal("fresh registry not empty at epoch 0")
	}
	seed := map[string]int{"device-0": 0, "device-1": 1, "device-2": 2}
	if e := r.Seed(seed); e != 1 {
		t.Fatalf("seed epoch %d, want 1", e)
	}
	if got := r.Live(); !reflect.DeepEqual(got, []string{"device-0", "device-1", "device-2"}) {
		t.Fatalf("live after seed: %v", got)
	}
	// Leave bumps the epoch once; a duplicate LEAVE is a no-op.
	if e := r.Leave("device-1"); e != 2 {
		t.Fatalf("leave epoch %d, want 2", e)
	}
	if e := r.Leave("device-1"); e != 2 {
		t.Fatalf("duplicate leave bumped the epoch to %d", e)
	}
	if got := r.Live(); len(got) != 2 {
		t.Fatalf("live %v after leave, want 2 members", got)
	}
	// Rejoin restores liveness with a fresh epoch.
	if e := r.Join("device-1", 1); e != 3 {
		t.Fatalf("rejoin epoch %d, want 3", e)
	}
	m, ok := r.Lookup("device-1")
	if !ok || !m.Alive || m.Joins != 2 || m.Leaves != 1 {
		t.Fatalf("rejoined member state: %+v", m)
	}
	// A join of an already-alive member changes nothing.
	if e := r.Join("device-0", 0); e != 3 {
		t.Fatalf("redundant join bumped the epoch to %d", e)
	}
}

func TestRegistryApplyControlPlane(t *testing.T) {
	r := NewRegistry()
	r.Seed(map[string]int{"device-0": 0, "device-1": 1})
	if !r.Apply("device-1", wire.ControlRecord{Type: wire.ControlLeave, Node: "device-1"}) {
		t.Fatal("LEAVE did not change membership")
	}
	if r.Apply("device-1", wire.ControlRecord{Type: wire.ControlLeave, Node: "device-1"}) {
		t.Fatal("duplicate LEAVE reported a change")
	}
	if !r.Apply("device-1", wire.ControlRecord{Type: wire.ControlResyncRequest, Node: "device-1", Device: 1}) {
		t.Fatal("RESYNC-REQUEST did not restore membership")
	}
	// A link-level JOIN (no Device field) must not clobber the seeded ID.
	r.Apply("device-0", wire.ControlRecord{Type: wire.ControlJoin, Node: "device-0"})
	if m, _ := r.Lookup("device-0"); m.Device != 0 {
		t.Fatalf("link-level JOIN clobbered device ID: %+v", m)
	}
	// Non-membership verbs are no-ops.
	if r.Apply("device-0", wire.ControlRecord{Type: wire.ControlRoundCutoff, Round: 3}) {
		t.Fatal("ROUND-CUTOFF changed membership")
	}
}

// TestRegistryChurnStormConverges drives a randomized join/leave storm
// through two registries in different interleavings of independent
// members; both must converge to the same live set and agree with a
// directly computed reference.
func TestRegistryChurnStormConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := names(12)
	type event struct {
		node  string
		leave bool
	}
	var storm []event
	state := map[string]bool{}
	for _, n := range nodes {
		state[n] = true
	}
	for i := 0; i < 400; i++ {
		n := nodes[rng.Intn(len(nodes))]
		leave := rng.Float64() < 0.5
		storm = append(storm, event{n, leave})
		state[n] = !leave
	}

	seed := map[string]int{}
	for i, n := range nodes {
		seed[n] = i
	}
	a, b := NewRegistry(), NewRegistry()
	a.Seed(seed)
	b.Seed(seed)
	for _, ev := range storm {
		if ev.leave {
			a.Leave(ev.node)
		} else {
			a.Join(ev.node, -1)
		}
	}
	// b sees the same per-node event sequences, but nodes interleaved
	// differently (events of different members commute).
	byNode := map[string][]event{}
	for _, ev := range storm {
		byNode[ev.node] = append(byNode[ev.node], ev)
	}
	for len(byNode) > 0 {
		for _, n := range nodes {
			q := byNode[n]
			if len(q) == 0 {
				delete(byNode, n)
				continue
			}
			ev := q[0]
			byNode[n] = q[1:]
			if ev.leave {
				b.Leave(ev.node)
			} else {
				b.Join(ev.node, -1)
			}
		}
	}

	var want []string
	for _, n := range nodes {
		if state[n] {
			want = append(want, n)
		}
	}
	if got := a.Live(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry a diverged: %v, want %v", got, want)
	}
	if got := b.Live(); !reflect.DeepEqual(got, a.Live()) {
		t.Fatalf("interleaving changed the converged live set: %v vs %v", got, a.Live())
	}
}

func TestRegistryGatherHistory(t *testing.T) {
	r := NewRegistry()
	r.Seed(map[string]int{"device-0": 0})
	r.RecordGather("device-0", 0, 100, 2*time.Millisecond)
	r.RecordGather("device-0", 1, 150, 3*time.Millisecond)
	m, ok := r.Lookup("device-0")
	if !ok {
		t.Fatal("member lost")
	}
	if m.Rounds != 2 || m.LastRound != 1 || m.Bytes != 250 || m.Wall != 5*time.Millisecond {
		t.Fatalf("gather history: %+v", m)
	}
	// History does not bump the membership epoch.
	if r.Epoch() != 1 {
		t.Fatalf("gather history bumped epoch to %d", r.Epoch())
	}
	// History rides the same Snapshot/Restore path as liveness.
	restored := NewRegistry()
	restored.Restore(r.Snapshot(), r.Epoch())
	if got, _ := restored.Lookup("device-0"); got != m || restored.Epoch() != 1 {
		t.Fatalf("restore lost history: %+v at epoch %d, want %+v at epoch 1", got, restored.Epoch(), m)
	}
}
