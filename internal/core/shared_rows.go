package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"acme/internal/data"
	"acme/internal/nas"
	"acme/internal/nn"
)

// shardKey names one cluster's holders of a data shard: the devices of
// one edge that hold the same train and test splits (shards are aliased
// across a data group under Fleet.SharedShards).
type shardKey struct {
	edge        int
	train, test *data.Dataset
}

// rowsEntry is the feature rows of one shardKey, shared by its holders.
// The first holder to arrive (the owner) featurizes the shard; the rest
// wait for ready and then alias the owner's rows if their backbone
// matches the owner's bit for bit. backbone is the owner's, not a copy.
type rowsEntry struct {
	left    int // holders yet to arrive
	claimed bool
	ready   chan struct{} // closed once the owner has set the fields below

	backbone    *nn.Backbone
	local, test *data.Dataset // nil if the owner's featurize failed
}

// sharedRows is a System's memo of feature rows for shards that several
// devices of one cluster hold. It has an entry only for such a shard,
// and drops it when the last holder counted at construction arrives, so
// a run whose shards are all private keeps nothing here.
type sharedRows struct {
	mu      sync.Mutex
	entries map[shardKey]*rowsEntry
}

// open counts each cluster's holders of every shard and opens an entry
// for each shard held more than once.
func (r *sharedRows) open(clusters [][]int, devTrain, devTest []*data.Dataset) {
	holders := make(map[shardKey]int)
	for e, members := range clusters {
		for _, di := range members {
			holders[shardKey{e, devTrain[di], devTest[di]}]++
		}
	}
	for key, n := range holders {
		if n < 2 {
			continue
		}
		if r.entries == nil {
			r.entries = make(map[shardKey]*rowsEntry)
		}
		r.entries[key] = &rowsEntry{left: n, ready: make(chan struct{})}
	}
}

// arrive checks one holder of key in: it returns the key's entry (nil if
// the shard is private or its entry was already dropped) and whether
// this holder is the one to featurize it.
func (r *sharedRows) arrive(key shardKey) (e *rowsEntry, owner bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e = r.entries[key]
	if e == nil {
		return nil, false
	}
	if e.left--; e.left == 0 {
		delete(r.entries, key)
	}
	owner = !e.claimed
	e.claimed = true
	return e, owner
}

// deviceFeatures returns the feature rows of device devIdx's local and
// test samples under model's frozen backbone. A device whose cluster
// holds its shard more than once takes the rows the shard's first holder
// computed, provided its backbone has the same bits; otherwise, and for
// a private shard, it featurizes its own. The rows are read-only either
// way: every holder's refinement, folds and evaluations only read them.
func (s *System) deviceFeatures(ctx context.Context, edgeID, devIdx int, model *nas.HeaderModel) (local, test *data.Dataset, err error) {
	key := shardKey{edgeID, s.devTrain[devIdx], s.devTest[devIdx]}
	e, owner := s.rows.arrive(key)
	if e == nil {
		return featurizeShard(model, key)
	}
	if owner {
		local, test, err = featurizeShard(model, key)
		if err == nil {
			e.backbone, e.local, e.test = model.Backbone, local, test
		}
		close(e.ready)
		return local, test, err
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	if e.local == nil || !sameBackbone(e.backbone, model.Backbone) {
		return featurizeShard(model, key)
	}
	return e.local, e.test, nil
}

// featurizeShard runs model's backbone over the shard's train and test
// samples.
func featurizeShard(model *nas.HeaderModel, key shardKey) (local, test *data.Dataset, err error) {
	if local, err = model.Featurize(key.train); err != nil {
		return nil, nil, err
	}
	if test, err = model.Featurize(key.test); err != nil {
		return nil, nil, err
	}
	return local, test, nil
}

// sameBackbone reports whether a and b compute the same forward pass:
// same shape, depth and masks, and every parameter equal bit for bit.
func sameBackbone(a, b *nn.Backbone) bool {
	if a == b {
		return true
	}
	if a.Cfg != b.Cfg || a.ActiveDepth != b.ActiveDepth {
		return false
	}
	for l, blk := range a.Blocks {
		if !slices.Equal(blk.Attn.HeadMask, b.Blocks[l].Attn.HeadMask) ||
			!slices.Equal(blk.FFN.NeuronMask, b.Blocks[l].FFN.NeuronMask) {
			return false
		}
	}
	pa, pb := a.Params(), b.Params()
	for i, p := range pa {
		q := pb[i].Value.Data
		for k, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(q[k]) {
				return false
			}
		}
	}
	return true
}
