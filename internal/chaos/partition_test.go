package chaos

import (
	"context"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// partitionWindow isolates dev from edge for the first 150ms of the
// net's life: everything the device sends is held at the link head and
// delivered, in order, at the heal.
const partitionHeal = 150 * time.Millisecond

func partitionOptions() Options {
	return Options{
		Seed:       11,
		Default:    Profile{Jitter: time.Millisecond},
		Partitions: []Window{{A: "dev", B: "edge", Start: 0, End: partitionHeal}},
	}
}

type partitionOutcome struct {
	gathered int
	verbs    []wire.ControlType
	wall     time.Duration
}

// runPartitionScenario partitions a device from its edge, has the
// device emit LEAVE → RESYNC-REQUEST → round-0 upload into the
// partition, and gathers on the edge. The chaos net must hold all three
// until the heal and release them in program order, so the edge sees
// the departure and the RESYNC recovery back to back.
func runPartitionScenario(t *testing.T, edge *transport.Session, devNet transport.Network) partitionOutcome {
	t.Helper()

	send := func(rec wire.ControlRecord) {
		payload, err := wire.EncodeControl(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := devNet.Send(transport.Message{
			Kind: transport.KindControl, From: "dev", To: "edge",
			Round: rec.Round, Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.ControlRecord{Type: wire.ControlLeave, Node: "dev", Device: 0})
	send(wire.ControlRecord{Type: wire.ControlResyncRequest, Node: "dev", Device: 0, Round: 0})
	if err := devNet.Send(transport.Message{
		Kind: transport.KindImportanceSet, From: "dev", To: "edge",
		Round: 0, Payload: []byte{1, 2, 3, 4},
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out partitionOutcome
	res, err := edge.Gather(ctx, transport.GatherSpec{
		Round:  0,
		Kinds:  []transport.Kind{transport.KindImportanceSet},
		Expect: []string{"dev"},
		Label:  "partition-heal",
		OnMessage: func(msg transport.Message) error {
			out.gathered++
			return nil
		},
		OnControl: func(msg transport.Message, rec wire.ControlRecord) (bool, error) {
			out.verbs = append(out.verbs, rec.Type)
			return false, nil
		},
	})
	if err != nil {
		t.Fatalf("gather across partition: %v", err)
	}
	out.wall = res.Wall
	return out
}

func checkPartitionOutcome(t *testing.T, label string, out partitionOutcome) {
	t.Helper()
	if out.gathered != 1 {
		t.Fatalf("%s: gathered %d uploads, want 1", label, out.gathered)
	}
	want := []wire.ControlType{wire.ControlLeave, wire.ControlResyncRequest}
	if len(out.verbs) != len(want) || out.verbs[0] != want[0] || out.verbs[1] != want[1] {
		t.Fatalf("%s: control verbs %v, want %v (per-pair order through the heal)", label, out.verbs, want)
	}
	// The gather must actually have waited for the heal: if the upload
	// leaked through the partition the wall time collapses.
	if out.wall < partitionHeal/2 {
		t.Fatalf("%s: gather finished in %v, before the %v heal — partition did not hold", label, out.wall, partitionHeal)
	}
}

func TestPartitionHealMemory(t *testing.T) {
	mem := transport.NewMemory()
	mem.Register("edge", 64)
	mem.Register("dev", 64)
	n := New(mem, partitionOptions())
	defer n.Close()
	edge := transport.NewSession("edge", n)
	out := runPartitionScenario(t, edge, n)
	checkPartitionOutcome(t, "memory", out)
}

func TestPartitionHealTCP(t *testing.T) {
	edgeTCP, err := transport.NewTCP("edge", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeTCP.Close()
	devTCP, err := transport.NewTCP("dev", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[string]string{"edge": edgeTCP.Addr(), "dev": devTCP.Addr()}
	edgeTCP.SetPeers(peers)
	devTCP.SetPeers(peers)
	n := New(devTCP, partitionOptions())
	defer n.Close()
	edge := transport.NewSession("edge", edgeTCP)
	out := runPartitionScenario(t, edge, n)
	checkPartitionOutcome(t, "tcp", out)
}

// The two transports must agree on the scenario: same verb order, same
// gather count. (Delivery *schedules* are already
// pinned byte-for-byte by TestScheduleDeterministicAcrossMemoryAndTCP;
// this pins the protocol-visible recovery.)
func TestPartitionHealMatchesAcrossTransports(t *testing.T) {
	mem := transport.NewMemory()
	mem.Register("edge", 64)
	mem.Register("dev", 64)
	nm := New(mem, partitionOptions())
	defer nm.Close()
	memOut := runPartitionScenario(t, transport.NewSession("edge", nm), nm)

	edgeTCP, err := transport.NewTCP("edge", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeTCP.Close()
	devTCP, err := transport.NewTCP("dev", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[string]string{"edge": edgeTCP.Addr(), "dev": devTCP.Addr()}
	edgeTCP.SetPeers(peers)
	devTCP.SetPeers(peers)
	nt := New(devTCP, partitionOptions())
	defer nt.Close()
	tcpOut := runPartitionScenario(t, transport.NewSession("edge", edgeTCP), nt)

	if memOut.gathered != tcpOut.gathered || len(memOut.verbs) != len(tcpOut.verbs) {
		t.Fatalf("recovery diverges across transports:\n  memory %+v\n  tcp    %+v", memOut, tcpOut)
	}
	for i := range memOut.verbs {
		if memOut.verbs[i] != tcpOut.verbs[i] {
			t.Fatalf("control verb %d diverges: memory %v, tcp %v", i, memOut.verbs[i], tcpOut.verbs[i])
		}
	}
}
