// Package fleet draws each round's participation subset: Sampler is a
// seeded, deterministic sample of the members an edge's loop state
// holds eligible. A run keeps no other membership record: the edge's
// loop state (who departed, who waits for a rejoin round) is its
// cluster's membership. Registry, a member table with liveness epochs
// and per-member gather history, has one caller: the standing
// benchmark's per-layer timings (bench/layers.go).
package fleet

import (
	"sync"
	"time"
)

// Member is one registered device as the registry sees it.
type Member struct {
	// Node is the member's transport node name ("device-7").
	Node string
	// Device is the member's fleet device ID.
	Device int
	// Alive reports whether the member has joined.
	Alive bool
	// Epoch is the registry epoch of the member's last liveness change.
	Epoch uint64
	// Joins counts the member's liveness transitions to alive.
	Joins int

	// Gather history: what the member contributed across rounds, fed by
	// RecordGather. LastRound is the most recent round a contribution
	// arrived in (-1 before the first).
	Rounds    int
	LastRound int
	// Bytes is the cumulative wire volume received from the member.
	Bytes int64
	// Wall is the cumulative gather wall time attributed to the
	// member's rounds.
	Wall time.Duration
}

// Registry is an epoch-stamped member set. A liveness change (Seed, or
// a Join of a member not alive) bumps the epoch; gather statistics do
// not: they describe members, they do not change who is in the run.
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
// alive in one epoch bump.
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
