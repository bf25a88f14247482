package transport

import (
	"context"
	"testing"

	"acme/internal/wire"
)

// TestGatherDerivesExpectFromMembership exercises the membership-aware
// gather path: Expect nil + Epoch draws the expected set from the
// registry's live members, control records fold into the registry, and
// a LEAVE with no OnControl handler shrinks the gather automatically.
func TestGatherDerivesExpectFromMembership(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	reg := ses.Membership()
	epoch := reg.Seed(map[string]int{"a": 0, "b": 1, "c": 2})

	for _, from := range []string{"a", "b"} {
		m.Send(Message{Kind: KindImportanceSet, From: from, To: "edge", Round: 1, Payload: []byte{1, 2, 3}})
	}
	leave, err := wire.EncodeControl(wire.ControlRecord{Type: wire.ControlLeave, Node: "c"})
	if err != nil {
		t.Fatal(err)
	}
	m.Send(Message{Kind: KindControl, From: "c", To: "edge", Payload: leave})

	res, err := ses.Gather(context.Background(), GatherSpec{
		Round: 1,
		Kinds: []Kind{KindImportanceSet},
		Epoch: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gathered != 2 {
		t.Fatalf("gathered %d uploads, want 2", res.Gathered)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != "c" {
		t.Fatalf("LEAVE did not exclude the departed peer: %v", res.Excluded)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("shrunk gather still reports missing peers: %v", res.Missing)
	}
	// The LEAVE also updated the registry.
	if live := reg.Live(); len(live) != 2 || reg.Epoch() == epoch {
		t.Fatalf("LEAVE did not reach the registry: live %v epoch %d", live, reg.Epoch())
	}
	// Counted uploads recorded per-member traffic history.
	mem, ok := reg.Lookup("a")
	if !ok || mem.Rounds != 1 || mem.Bytes != 3+HeaderEstimate || mem.LastRound != 1 {
		t.Fatalf("gather history not recorded: %+v", mem)
	}
}

// TestGatherStaleEpochFiltersDeparted verifies that a spec built
// against an older registry epoch drops peers that departed before the
// gather started, instead of waiting on them.
func TestGatherStaleEpochFiltersDeparted(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	reg := ses.Membership()
	epoch := reg.Seed(map[string]int{"a": 0, "b": 1})
	reg.Leave("b") // departs after the spec's epoch was captured

	m.Send(Message{Kind: KindImportanceSet, From: "a", To: "edge", Round: 0})
	res, err := ses.Gather(context.Background(), GatherSpec{
		Kinds:  []Kind{KindImportanceSet},
		Expect: []string{"a", "b"},
		Epoch:  epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gathered != 1 || len(res.Missing) != 0 {
		t.Fatalf("stale-epoch gather: gathered %d missing %v", res.Gathered, res.Missing)
	}
}

// TestGatherEpochWithoutRegistryFails keeps the membership contract
// loud: an epoch-stamped spec on a session with no registry is a
// programming error, not a silent full-fleet wait.
func TestGatherEpochWithoutRegistryFails(t *testing.T) {
	m := gatherNet(t, "edge")
	ses := NewSession("edge", m)
	if _, err := ses.Gather(context.Background(), GatherSpec{
		Kinds: []Kind{KindImportanceSet},
		Epoch: 7,
	}); err == nil {
		t.Fatal("epoch-stamped gather without a registry must fail")
	}
}
