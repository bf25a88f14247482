package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"acme/internal/chaos"
	"acme/internal/transport"
	"acme/internal/wire"
)

// scrub overwrites every leased frame in place at its final Release
// until the test ends.
func scrub(t *testing.T) {
	wire.SetScrub(overwrite)
	t.Cleanup(func() { wire.SetScrub(nil) })
}

// drainInboxes releases whatever is left in the roles' inboxes after a
// run: a frame parked where nobody reads it (a duplicate that arrived
// after its gather ended) stays leased until then.
func drainInboxes(t *testing.T, net transport.Network, roles []string) {
	t.Helper()
	for _, role := range roles {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			msg, err := net.Recv(ctx, role)
			cancel()
			if err != nil {
				break
			}
			msg.Release()
		}
	}
}

// TestEveryFrameReleased: every frame a run leases — each encoded
// upload, downlink, model package, backbone, statistics and report —
// is back in wire's pool once Run has returned and the inboxes are
// drained, on the default memory fleet, on delta + int8 + entropy
// frames, and over a chaos network that duplicates every statistics
// upload to the cloud. The duplicated run also overwrites each frame at
// its final release, and must report exactly what the plain run did.
func TestEveryFrameReleased(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	run := func(t *testing.T, cfg Config, wrap func(*transport.Memory) transport.Network) []DeviceReport {
		t.Helper()
		start := wire.Leased()
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mem := sys.Net.(*transport.Memory)
		if wrap != nil {
			sys.Net = wrap(mem)
		}
		res, err := sys.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cn, ok := sys.Net.(*chaos.Net); ok {
			cn.Wait()
			if err := cn.Err(); err != nil {
				t.Fatal(err)
			}
		}
		drainInboxes(t, mem, sys.RoleNames())
		if n := wire.Leased() - start; n != 0 {
			t.Fatalf("%d frames still leased after Run", n)
		}
		return res.Reports
	}

	cfg := tinyConfig()
	cfg.Phase2Rounds = 2
	var plain []DeviceReport
	t.Run("memory", func(t *testing.T) { plain = run(t, cfg, nil) })
	t.Run("delta-int8-entropy", func(t *testing.T) {
		shaped := cfg
		shaped.Wire = WireOptions{DeltaImportance: true, Quantization: QuantInt8, Entropy: true}
		run(t, shaped, nil)
	})
	t.Run("chaos-duplicates", func(t *testing.T) {
		scrub(t)
		var cn *chaos.Net
		got := run(t, cfg, func(mem *transport.Memory) transport.Network {
			cn = chaos.New(mem, chaos.Options{Seed: 3, Record: true, Links: []chaos.LinkRule{
				{To: "cloud", Profile: chaos.Profile{DuplicateProb: 1}},
			}})
			return cn
		})
		dups := 0
		for _, d := range cn.Trace() {
			if d.Dup {
				dups++
			}
		}
		if dups != cfg.EdgeServers {
			t.Fatalf("%d duplicates delivered, want one per edge's statistics", dups)
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("reports over duplicated, scrubbed frames differ:\n got  %+v\n want %+v", got, plain)
		}
	})
}

// dupWithoutRetain is the bug the chaos network's duplicate path would
// have without its Retain: the same message, one reference, delivered
// twice.
type dupWithoutRetain struct{ transport.Network }

func (n dupWithoutRetain) Send(msg transport.Message) error {
	if err := n.Network.Send(msg); err != nil {
		return err
	}
	return n.Network.Send(msg)
}

// TestDuplicateWithoutRetainIsCaught plants that bug under the scrub:
// the first receiver's Release returns the frame to the pool, so the
// second copy reads overwritten bytes, and its own Release is one too
// many and panics.
func TestDuplicateWithoutRetainIsCaught(t *testing.T) {
	scrub(t)
	mem := transport.NewMemory()
	mem.Register("cloud", 4)
	s := &System{}
	want := ClusterStats{EdgeID: 1, MinStorage: 42, DeviceIDs: []int{2, 3}}
	buf, _, err := s.encodePayload(transport.KindStats, want)
	if err != nil {
		t.Fatal(err)
	}
	net := dupWithoutRetain{mem}
	if err := net.Send(transport.Message{Kind: transport.KindStats, From: "edge-1", To: "cloud"}.WithLease(buf)); err != nil {
		t.Fatal(err)
	}
	recv := func() (transport.Message, ClusterStats, error) {
		msg, err := mem.Recv(context.Background(), "cloud")
		if err != nil {
			t.Fatal(err)
		}
		var got ClusterStats
		err = wire.Decode(msg.Payload, &got)
		return msg, got, err
	}
	first, got, err := recv()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("first copy decoded to %+v, %v", got, err)
	}
	first.Release()
	second, got, err := recv()
	if err == nil && reflect.DeepEqual(got, want) {
		t.Fatal("the second copy of a frame released once still reads as sent: the scrub caught nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing the second copy did not panic")
		}
	}()
	second.Release()
}
