// Package fleet tracks distributed-run membership: an epoch-stamped
// registry of member devices fed by the session control plane
// (JOIN / LEAVE / RESYNC-REQUEST), with per-member liveness and
// traffic history, and a seeded deterministic sampler that picks each
// round's participation subset. The registry outlives any one
// connection — a member is a protocol participant, not a socket — so
// an edge consults it instead of the static cluster list when it
// builds a round: a departed member shrinks the round instead of
// hanging it, and a rejoined one re-enters without restarting the run.
package fleet

import (
	"sort"
	"sync"
	"time"

	"acme/internal/wire"
)

// Member is one registered device as the registry sees it.
type Member struct {
	// Node is the member's transport node name ("device-7").
	Node string
	// Device is the member's fleet device ID.
	Device int
	// Alive reports whether the member is currently in the run (joined
	// or resynced, and not departed).
	Alive bool
	// Epoch is the registry epoch of the member's last liveness change.
	Epoch uint64
	// Joins and Leaves count liveness transitions: the seed join plus
	// every resync, and every LEAVE.
	Joins  int
	Leaves int

	// Gather history: what the member contributed across rounds, fed by
	// the session layer's round gathers. LastRound is the most recent
	// round a contribution arrived in (-1 before the first).
	Rounds    int
	LastRound int
	// Bytes is the cumulative wire volume received from the member.
	Bytes int64
	// Wall is the cumulative gather wall time attributed to the
	// member's rounds.
	Wall time.Duration
}

// Registry is an epoch-stamped member set. Every liveness change
// (join, leave, rejoin) bumps the epoch, so a consumer that built a
// round from a snapshot can detect that membership moved underneath
// it. Gather statistics do not bump the epoch: they describe members,
// they do not change who is in the run.
type Registry struct {
	mu      sync.Mutex
	epoch   uint64
	members map[string]*Member
}

// NewRegistry returns an empty registry at epoch 0.
func NewRegistry() *Registry {
	return &Registry{members: make(map[string]*Member)}
}

// Seed registers the genesis member set (node name → device ID) as
// alive in one epoch bump — the static cluster list the run starts
// from, before the control plane takes over.
func (r *Registry) Seed(members map[string]int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch++
	for node, dev := range members {
		m := r.member(node)
		m.Device = dev
		m.Alive = true
		m.Epoch = r.epoch
		m.Joins++
	}
	return r.epoch
}

// member returns (creating if needed) the entry for node. Callers hold
// r.mu.
func (r *Registry) member(node string) *Member {
	m, ok := r.members[node]
	if !ok {
		m = &Member{Node: node, Device: -1, LastRound: -1}
		r.members[node] = m
	}
	return m
}

// Join marks a member alive, registering it on first sight. It bumps
// the epoch only when the liveness actually changes.
func (r *Registry) Join(node string, device int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.member(node)
	if device >= 0 {
		m.Device = device
	}
	if !m.Alive {
		r.epoch++
		m.Alive = true
		m.Epoch = r.epoch
		m.Joins++
	}
	return r.epoch
}

// Leave marks a member departed. Unknown nodes are ignored (a LEAVE
// from a node that was never a member is link noise, not a state
// change).
func (r *Registry) Leave(node string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[node]
	if !ok || !m.Alive {
		return r.epoch
	}
	r.epoch++
	m.Alive = false
	m.Epoch = r.epoch
	m.Leaves++
	return r.epoch
}

// Apply folds one control-plane record into the registry: JOIN and
// RESYNC-REQUEST mark the sender alive, LEAVE marks it departed; every
// other verb is a no-op. node is the transport-level sender (records
// may omit their Node field). It reports whether membership changed.
func (r *Registry) Apply(node string, rec wire.ControlRecord) bool {
	if rec.Node != "" {
		node = rec.Node
	}
	before := r.Epoch()
	switch rec.Type {
	case wire.ControlJoin:
		r.Join(node, deviceOf(rec))
	case wire.ControlResyncRequest:
		r.Join(node, deviceOf(rec))
	case wire.ControlLeave:
		r.Leave(node)
	}
	return r.Epoch() != before
}

// deviceOf extracts a record's device ID, mapping the untyped zero
// record (a link-level JOIN carries no device) to "unknown".
func deviceOf(rec wire.ControlRecord) int {
	if rec.Device == 0 && rec.Type == wire.ControlJoin && rec.Node != "" {
		// A link-level JOIN's Device field is not populated; keep any
		// previously seeded ID instead of clobbering it with 0.
		return -1
	}
	return rec.Device
}

// Epoch returns the current membership epoch.
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Live returns the sorted node names of every alive member — the set a
// round's participation sample draws from.
func (r *Registry) Live() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for node, m := range r.members {
		if m.Alive {
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

// LiveCount returns the number of alive members.
func (r *Registry) LiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.members {
		if m.Alive {
			n++
		}
	}
	return n
}

// Lookup returns a copy of the named member's entry.
func (r *Registry) Lookup(node string) (Member, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[node]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// Snapshot returns a copy of every member, sorted by node name.
func (r *Registry) Snapshot() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Restore replaces the registry's entire state with a previously
// Snapshot-ted member set at the given epoch — the checkpoint/restore
// path of a crashed session. The restored epoch must carry over
// exactly: consumers compare epochs to detect membership drift, and a
// restart is not a membership change.
func (r *Registry) Restore(members []Member, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch = epoch
	r.members = make(map[string]*Member, len(members))
	for _, m := range members {
		cp := m
		r.members[m.Node] = &cp
	}
}

// RecordGather folds one round contribution into a member's history:
// the wire bytes it delivered and the gather wall time its round cost.
// Unknown nodes are registered dead (history without liveness), so
// out-of-registry traffic is still accounted.
func (r *Registry) RecordGather(node string, round int, bytes int64, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.member(node)
	m.Rounds++
	if round > m.LastRound {
		m.LastRound = round
	}
	m.Bytes += bytes
	m.Wall += wall
}
