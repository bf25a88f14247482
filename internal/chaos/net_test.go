package chaos

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

func TestFlakyDeliversEverything(t *testing.T) {
	mem := transport.NewMemory()
	mem.Register("sink", 256)
	f := New(mem, Options{Seed: 1, Default: Profile{Jitter: 2 * time.Millisecond}})
	const n = 40
	for i := 0; i < n; i++ {
		if err := f.Send(transport.Message{Kind: transport.KindControl, From: "src", To: "sink", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[byte]bool{}
	for i := 0; i < n; i++ {
		msg, err := f.Recv(ctx, "sink")
		if err != nil {
			t.Fatal(err)
		}
		seen[msg.Payload[0]] = true
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), n)
	}
	f.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFlakyDuplication(t *testing.T) {
	mem := transport.NewMemory()
	mem.Register("sink", 256)
	f := New(mem, Options{Seed: 2, Default: Profile{Jitter: time.Millisecond, DuplicateProb: 1}})
	const n = 10
	for i := 0; i < n; i++ {
		if err := f.Send(transport.Message{Kind: transport.KindControl, From: "src", To: "sink"}); err != nil {
			t.Fatal(err)
		}
	}
	f.Wait()
	if got := mem.Stats().TotalMessages(); got != 2*n {
		t.Fatalf("expected %d deliveries with duplication, got %d", 2*n, got)
	}
}

// releasingSend is an inner transport that, like TCP once its write
// ends, is done with a message the moment Send returns: it checks the
// payload and releases it at once.
type releasingSend struct {
	*transport.Memory
	mu    sync.Mutex
	sends int
	bad   int
}

func (r *releasingSend) Send(msg transport.Message) error {
	r.mu.Lock()
	r.sends++
	if !bytes.Equal(msg.Payload, dupFrame) {
		r.bad++
	}
	r.mu.Unlock()
	msg.Release()
	return nil
}

var dupFrame = []byte("one frame, two deliveries")

// A duplicate holds a reference of its own from before the first
// delivery starts: on a link with no delay, that delivery can reach an
// inner transport that releases at once before Send has returned. Every
// delivery must still see the frame as sent (released frames are
// scrubbed), and every lease must end released exactly once (a release
// too many panics). Recording the trace makes Send slower between the
// two deliveries (its appends grow the trace), which widens the window
// a late Retain would lose.
func TestDuplicateOfLeasedFrameOnZeroDelayLink(t *testing.T) {
	wire.SetScrub(func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	})
	defer wire.SetScrub(nil)
	inner := &releasingSend{Memory: transport.NewMemory()}
	f := New(inner, Options{Seed: 4, Record: true, Default: Profile{DuplicateProb: 1}})
	start := wire.Leased()
	const n = 5000
	for i := 0; i < n; i++ {
		b := wire.Lease(len(dupFrame))
		b.B = append(b.B, dupFrame...)
		if err := f.Send(transport.Message{Kind: transport.KindControl, From: "src", To: "sink"}.WithLease(b)); err != nil {
			t.Fatal(err)
		}
	}
	f.Wait()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if inner.sends != 2*n || inner.bad != 0 {
		t.Fatalf("%d deliveries, %d of them past their frame's release; want %d, none", inner.sends, inner.bad, 2*n)
	}
	if d := wire.Leased() - start; d != 0 {
		t.Fatalf("%d frames still leased", d)
	}
}

// Reordering happens across links, never within one: per-pair FIFO is
// part of the model (a TCP connection would do the same), so the delay
// injection shuffles interleaving between senders only.
func TestReordersAcrossSendersNotWithinPair(t *testing.T) {
	mem := transport.NewMemory()
	mem.Register("sink", 1024)
	f := New(mem, Options{Seed: 3, Default: Profile{Jitter: 4 * time.Millisecond}})
	const senders, each = 4, 30
	for i := 0; i < each; i++ {
		for s := 0; s < senders; s++ {
			if err := f.Send(transport.Message{
				Kind: transport.KindControl, From: fmt.Sprintf("src-%d", s), To: "sink",
				Payload: []byte{byte(s), byte(i)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	lastBySender := map[byte]int{}
	crossOrderBreaks := 0
	lastSender := byte(255)
	for i := 0; i < senders*each; i++ {
		msg, err := f.Recv(ctx, "sink")
		if err != nil {
			t.Fatal(err)
		}
		s, seq := msg.Payload[0], int(msg.Payload[1])
		if last, ok := lastBySender[s]; ok && seq <= last {
			t.Fatalf("per-pair order violated: sender %d delivered %d after %d", s, seq, last)
		}
		lastBySender[s] = seq
		if lastSender != 255 && s != (lastSender+1)%senders {
			crossOrderBreaks++
		}
		lastSender = s
	}
	if crossOrderBreaks == 0 {
		t.Fatal("delays never interleaved senders differently from the send order — injection is not working")
	}
}

// The old Flaky wrapper raced wg.Add in Send against Close's wg.Wait
// and swallowed inner-send errors. The chaos lifecycle must do
// neither: Send after Close fails fast, all delivery goroutines drain
// before the inner transport closes, and a failed delivery surfaces.
func TestLifecycleAndGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	mem := transport.NewMemory()
	mem.Register("sink", 64)
	f := New(mem, Options{Seed: 7, Default: Profile{Jitter: 2 * time.Millisecond}})
	for i := 0; i < 32; i++ {
		if err := f.Send(transport.Message{Kind: transport.KindControl, From: "src", To: "sink"}); err != nil {
			t.Fatal(err)
		}
	}
	// A delivery to an unregistered node must surface, not vanish.
	_ = f.Send(transport.Message{Kind: transport.KindControl, From: "src", To: "nobody"})
	if err := f.Close(); err == nil {
		t.Fatal("Close swallowed the failed delivery to an unknown node")
	}
	if err := f.Send(transport.Message{Kind: transport.KindControl, From: "src", To: "sink"}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	// All delivery goroutines must have drained by the time Close
	// returned (wg.Wait before inner close).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after Close", before, after)
	}
}

// The wrapper must forward the complete Transport surface (sends,
// counters, Close) of whatever it wraps, TCP included, so the session
// API composes with chaos over any substrate.
func TestForwardsFullTransport(t *testing.T) {
	inner, err := transport.NewTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	f := New(inner, Options{Seed: 1, Default: Profile{Jitter: time.Millisecond}})
	var tr transport.Transport = f // compile-time and runtime interface check
	if tr.Stats() != inner.Stats() {
		t.Fatal("Stats does not forward the inner counters")
	}
	b, err := transport.NewTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inner.SetPeers(map[string]string{"a": inner.Addr(), "b": b.Addr()})
	if err := tr.Send(transport.Message{Kind: transport.KindControl, From: "a", To: "b", Payload: []byte("via chaos+tcp")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msg, err := b.Recv(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "via chaos+tcp" {
		t.Fatalf("payload %q", msg.Payload)
	}
	// Close must tear down the wrapped TCP node.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inner.Send(transport.Message{Kind: transport.KindControl, From: "a", To: "b"}); err == nil {
		t.Fatal("inner TCP still alive after chaos Close")
	}
	// Memory wrapped in chaos keeps its counters.
	mf := New(transport.NewMemory(), Options{Seed: 1, Default: Profile{Jitter: time.Millisecond}})
	if mf.Stats() == nil {
		t.Fatal("chaos-over-memory lacks traffic counters")
	}
}

// sendScript drives a fixed multi-node exchange through a chaos net:
// per-pair program order is identical on every run, which is the
// contract the schedule hash keys on.
func sendScript(t *testing.T, n *Net) {
	t.Helper()
	for r := 0; r < 8; r++ {
		for _, hop := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "a"}, {"c", "b"}} {
			payload := make([]byte, 10+3*r)
			if err := n.Send(transport.Message{
				Kind: transport.KindImportanceSet, From: hop[0], To: hop[1],
				Round: r, Payload: payload,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.Wait()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
}

var detProfile = Profile{
	BaseDelay: 200 * time.Microsecond, Jitter: 2 * time.Millisecond,
	SpikeProb: 0.2, SpikeDelay: 4 * time.Millisecond, BandwidthBps: 4 << 20,
	DuplicateProb: 0.1,
}

// The same seed must produce the identical per-message delivery
// schedule no matter which transport carries the traffic: the satellite
// determinism contract for the link model.
func TestScheduleDeterministicAcrossMemoryAndTCP(t *testing.T) {
	// Memory run: one shared substrate.
	mem := transport.NewMemory()
	for _, n := range []string{"a", "b", "c"} {
		mem.Register(n, 256)
	}
	cm := New(mem, Options{Seed: 99, Default: detProfile, Record: true})
	sendScript(t, cm)
	memTrace := cm.Trace()

	// TCP run: one transport per node, each behind its own chaos
	// wrapper with the same seed. The union of their traces must match
	// the memory run message for message, delay for delay.
	nodes := map[string]*transport.TCP{}
	peers := map[string]string{}
	for _, n := range []string{"a", "b", "c"} {
		tr, err := transport.NewTCP(n, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		nodes[n] = tr
		peers[n] = tr.Addr()
	}
	wrapped := map[string]*Net{}
	for n, tr := range nodes {
		tr.SetPeers(peers)
		wrapped[n] = New(tr, Options{Seed: 99, Default: detProfile, Record: true})
	}
	// Drain inboxes so TCP sends never block on full buffers.
	drainCtx, stopDrain := context.WithCancel(context.Background())
	defer stopDrain()
	for _, n := range []string{"a", "b", "c"} {
		go func(name string) {
			for {
				msg, err := nodes[name].Recv(drainCtx, name)
				if err != nil {
					return
				}
				msg.Release()
			}
		}(n)
	}
	// Drive each sender through its own wrapper, preserving the same
	// per-pair program order as the memory run.
	for r := 0; r < 8; r++ {
		for _, hop := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "a"}, {"c", "b"}} {
			payload := make([]byte, 10+3*r)
			if err := wrapped[hop[0]].Send(transport.Message{
				Kind: transport.KindImportanceSet, From: hop[0], To: hop[1],
				Round: r, Payload: payload,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var tcpTrace []Delivery
	for _, n := range []string{"a", "b", "c"} {
		wrapped[n].Wait()
		if err := wrapped[n].Err(); err != nil {
			t.Fatal(err)
		}
		tcpTrace = append(tcpTrace, wrapped[n].Trace()...)
	}
	// Canonical order: reuse the Trace sort by round-tripping through a
	// recording net.
	sorter := &Net{opts: Options{Record: true}, trace: tcpTrace}
	tcpTrace = sorter.Trace()

	if len(memTrace) != len(tcpTrace) {
		t.Fatalf("schedule lengths diverge: memory %d, tcp %d", len(memTrace), len(tcpTrace))
	}
	for i := range memTrace {
		if memTrace[i] != tcpTrace[i] {
			t.Fatalf("schedule entry %d diverges:\n  memory %+v\n  tcp    %+v", i, memTrace[i], tcpTrace[i])
		}
	}
	// The schedule must also be non-trivial: some jitter, some spikes.
	varied := false
	for i := 1; i < len(memTrace); i++ {
		if memTrace[i].Delay != memTrace[0].Delay {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("every scheduled delay identical — the profile hash is not mixing")
	}
}
