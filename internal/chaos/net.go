// Package chaos is the adversarial scenario engine: a composable,
// seeded link-fault model behind transport.Transport (per-pair delay
// distributions with jitter and latency spikes, bandwidth throttling,
// scheduled partitions and heals), Byzantine device strategies that
// corrupt importance uploads, and the statistical machinery the edge
// uses to detect them.
//
// Everything is deterministic under a seed. Each message's behaviour —
// delay, spike, duplication — derives from a splitmix64 hash of
// (seed, sender, receiver, per-pair sequence number), not from a shared
// RNG consumed in arrival order, so two runs of the same protocol
// produce identical per-pair delivery schedules no matter which
// transport carries them or how goroutines interleave. The recorded
// schedule (Trace) is directly comparable across Memory and TCP.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"acme/internal/transport"
)

// Profile describes the behaviour of one link direction.
type Profile struct {
	// BaseDelay is the fixed propagation delay added to every message.
	BaseDelay time.Duration
	// Jitter adds a uniform [0, Jitter) component per message.
	Jitter time.Duration
	// SpikeProb is the per-message probability of a latency spike.
	SpikeProb float64
	// SpikeDelay is the spike magnitude: a spiked message waits an
	// extra uniform [0, SpikeDelay).
	SpikeDelay time.Duration
	// BandwidthBps throttles serialization: every message waits an
	// additional payloadBits/BandwidthBps. 0 means unthrottled.
	BandwidthBps int64
	// DuplicateProb is the per-message probability of a second delivery
	// with an independently drawn delay.
	DuplicateProb float64
}

// LinkRule binds a profile to the link pairs it matches. Empty From/To
// match any node; the first matching rule wins.
type LinkRule struct {
	From, To string
	Profile  Profile
}

// Window schedules one partition between two nodes, both directions.
// Times are measured from the Net's creation. Messages whose delivery
// would fall inside the window are held at the link head and delivered
// at End (the heal), in their original per-pair order.
type Window struct {
	// A and B name the partitioned nodes; an empty string is a
	// wildcard, so {A: "edge-0"} isolates edge-0 from everyone.
	A, B string
	// Start and End bound the partition, relative to the Net's start.
	Start, End time.Duration
}

// matches reports whether the window covers the from→to link.
func (w Window) matches(from, to string) bool {
	okA := w.A == "" || w.A == from || w.A == to
	okB := w.B == "" || w.B == from || w.B == to
	if w.A != "" && w.B != "" {
		// Both named: the pair must be exactly {A, B}.
		return (w.A == from && w.B == to) || (w.A == to && w.B == from)
	}
	return okA && okB
}

// Options configures a Net.
type Options struct {
	// Seed drives every per-message draw. Two Nets with the same seed,
	// rules, and per-pair send sequences compute identical schedules.
	Seed int64
	// Default is the profile for links no rule matches.
	Default Profile
	// Links are per-pair overrides, first match wins.
	Links []LinkRule
	// Partitions are the scheduled partition windows.
	Partitions []Window
	// Record enables the per-message schedule trace (Trace). Off by
	// default: a long run would otherwise accumulate unbounded history.
	Record bool
}

// Delivery is one recorded scheduling decision.
type Delivery struct {
	From, To string
	// Seq is the message's per-pair program-order sequence number.
	Seq   uint64
	Kind  transport.Kind
	Round int
	// Delay is the computed schedule delay (base+jitter+spike+
	// serialization), before FIFO holds and partition deferral.
	Delay time.Duration
	// Dup marks the duplicate copy of a duplicated message.
	Dup bool
}

// pairState is the per-link scheduling state.
type pairState struct {
	seq     uint64
	nextDue time.Time
	// last is the previous delivery's completion signal: each delivery
	// waits for it before forwarding, making per-pair order a hard
	// guarantee rather than a race between near-equal due times.
	last chan struct{}
}

// Net wraps a Transport with the seeded link-fault model. It is the
// successor of the old transport.Flaky wrapper with a
// fixed lifecycle: Send after Close fails instead of racing Close's
// wait, and inner-send errors from delivery goroutines are collected
// and surfaced by Err and Close rather than swallowed.
type Net struct {
	inner transport.Transport
	opts  Options
	start time.Time

	mu     sync.Mutex
	pairs  map[string]*pairState
	trace  []Delivery
	errs   []error
	closed bool
	wg     sync.WaitGroup
}

var _ transport.Transport = (*Net)(nil)

// New wraps inner with the chaos link model.
func New(inner transport.Transport, opts Options) *Net {
	return &Net{
		inner: inner,
		opts:  opts,
		start: time.Now(),
		pairs: make(map[string]*pairState),
	}
}

// splitmix64 is the standard SplitMix64 mixer — the same generator the
// fleet sampler uses, duplicated here to keep the packages independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a string deterministically (across processes, unlike
// hash/maphash) for mixing node names into the per-message seed.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw returns the i-th independent uniform uint64 for a message
// identified by (seed, pair, seq).
func draw(seed int64, pairHash, seq uint64, i uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)) ^ pairHash ^ splitmix64(seq+1) + i*0x9e3779b97f4a7c15)
}

// frac maps a uint64 draw to [0, 1).
func frac(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// profileFor picks the first matching link rule, else the default.
func (n *Net) profileFor(from, to string) Profile {
	for _, r := range n.opts.Links {
		if (r.From == "" || r.From == from) && (r.To == "" || r.To == to) {
			return r.Profile
		}
	}
	return n.opts.Default
}

// schedule computes the message's deterministic delay and duplication
// from the profile and the per-message hash stream.
func schedule(p Profile, seed int64, pairHash, seq uint64, payloadLen int) (delay time.Duration, dup bool, dupDelay time.Duration) {
	delay = p.BaseDelay
	if p.Jitter > 0 {
		delay += time.Duration(frac(draw(seed, pairHash, seq, 0)) * float64(p.Jitter))
	}
	if p.SpikeProb > 0 && frac(draw(seed, pairHash, seq, 1)) < p.SpikeProb {
		delay += time.Duration(frac(draw(seed, pairHash, seq, 2)) * float64(p.SpikeDelay))
	}
	if p.BandwidthBps > 0 {
		delay += time.Duration(int64(payloadLen) * 8 * int64(time.Second) / p.BandwidthBps)
	}
	if p.DuplicateProb > 0 && frac(draw(seed, pairHash, seq, 3)) < p.DuplicateProb {
		dup = true
		dupDelay = delay
		if p.Jitter > 0 {
			dupDelay = p.BaseDelay + time.Duration(frac(draw(seed, pairHash, seq, 4))*float64(p.Jitter))
		}
	}
	return delay, dup, dupDelay
}

// healAfter returns the latest End among partition windows that contain
// the instant at offset off on the from→to link, or 0 when none does.
func (n *Net) healAfter(from, to string, off time.Duration) time.Duration {
	var heal time.Duration
	for _, w := range n.opts.Partitions {
		if w.matches(from, to) && off >= w.Start && off < w.End && w.End > heal {
			heal = w.End
		}
	}
	return heal
}

// Send implements Network: the message is scheduled per the link's
// profile and delivered asynchronously at its due time. Per-pair FIFO
// order is preserved — a message never overtakes an earlier one on the
// same link — matching what a single TCP connection would do, so delay
// injection reorders across links, not within one. The caller's
// reference to a leased payload rides the delivery to the inner
// transport; a duplicate retains one more.
func (n *Net) Send(msg transport.Message) error {
	prof := n.profileFor(msg.From, msg.To)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		msg.Release()
		return fmt.Errorf("chaos: network closed")
	}
	key := msg.From + "\x00" + msg.To
	st := n.pairs[key]
	if st == nil {
		st = &pairState{}
		n.pairs[key] = st
	}
	seq := st.seq
	st.seq++
	pairHash := fnv1a(key)
	delay, dup, dupDelay := schedule(prof, n.opts.Seed, pairHash, seq, len(msg.Payload))
	now := time.Now()
	due := now.Add(delay)
	// Partition deferral: a delivery that would land inside a partition
	// window waits for the heal.
	if heal := n.healAfter(msg.From, msg.To, due.Sub(n.start)); heal > 0 {
		due = n.start.Add(heal)
	}
	// Per-pair FIFO.
	if due.Before(st.nextDue) {
		due = st.nextDue
	}
	st.nextDue = due
	if n.opts.Record {
		n.trace = append(n.trace, Delivery{From: msg.From, To: msg.To, Seq: seq,
			Kind: msg.Kind, Round: msg.Round, Delay: delay})
	}
	if dup {
		// The copy is a second message on the same frame: it holds a
		// reference of its own, which its receiver releases. It is taken
		// before the first delivery starts, which may release the
		// caller's reference at once.
		msg.Retain()
	}
	// wg.Add under the same lock that Close takes before wg.Wait: a
	// Send either observes closed (and spawns nothing) or registers its
	// delivery before Close can start waiting — the race the old Flaky
	// wrapper had.
	n.wg.Add(1)
	prev, done := st.last, make(chan struct{})
	st.last = done
	go n.deliver(msg, due, prev, done)
	if dup {
		dupDue := now.Add(dupDelay)
		if dupDue.Before(st.nextDue) {
			dupDue = st.nextDue
		}
		st.nextDue = dupDue
		if n.opts.Record {
			n.trace = append(n.trace, Delivery{From: msg.From, To: msg.To, Seq: seq,
				Kind: msg.Kind, Round: msg.Round, Delay: dupDelay, Dup: true})
		}
		n.wg.Add(1)
		prev, done = st.last, make(chan struct{})
		st.last = done
		go n.deliver(msg, dupDue, prev, done)
	}
	n.mu.Unlock()
	return nil
}

// deliver sleeps until the message's due time, waits for the link's
// previous delivery, and forwards to the inner transport, collecting
// rather than swallowing the error.
func (n *Net) deliver(msg transport.Message, due time.Time, prev, done chan struct{}) {
	defer n.wg.Done()
	defer close(done)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if prev != nil {
		<-prev
	}
	if err := n.inner.Send(msg); err != nil {
		n.mu.Lock()
		n.errs = append(n.errs, fmt.Errorf("chaos: deliver %v %s→%s: %w", msg.Kind, msg.From, msg.To, err))
		n.mu.Unlock()
	}
}

// Recv implements Network, delegating to the inner transport.
func (n *Net) Recv(ctx context.Context, node string) (transport.Message, error) {
	return n.inner.Recv(ctx, node)
}

// Stats implements Transport.
func (n *Net) Stats() *transport.Stats { return n.inner.Stats() }

// Wait blocks until every in-flight delayed delivery has been handed to
// the inner transport, without closing anything.
func (n *Net) Wait() { n.wg.Wait() }

// Err returns the inner-send errors collected so far, joined.
func (n *Net) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return errors.Join(n.errs...)
}

// Trace returns the recorded schedule, sorted by (From, To, Seq, Dup) —
// a canonical order independent of goroutine interleaving, directly
// comparable between runs and across transports. Empty unless
// Options.Record was set.
func (n *Net) Trace() []Delivery {
	n.mu.Lock()
	out := append([]Delivery(nil), n.trace...)
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return !a.Dup && b.Dup
	})
	return out
}

// Close implements Transport: refuses further Sends, drains the
// in-flight deliveries, closes the inner transport, and reports every
// delivery error the drain surfaced.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
	errs := []error{n.Err()}
	errs = append(errs, n.inner.Close())
	return errors.Join(errs...)
}
