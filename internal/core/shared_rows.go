package core

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"

	"acme/internal/data"
	"acme/internal/nas"
)

// shardKey names one cluster's holders of a data shard: the devices of
// one edge that hold the same train and test splits (shards are aliased
// across a data group under Fleet.SharedShards).
type shardKey struct {
	edge        int
	train, test *data.Dataset
}

// shardOf is the shardKey of device devIdx in edge edgeID's cluster.
func (s *System) shardOf(edgeID, devIdx int) shardKey {
	return shardKey{edgeID, s.devTrain[devIdx], s.devTest[devIdx]}
}

// shardRows is what a device keeps of its backbone: the feature rows of
// its local and test samples, and the backbone's active parameter count
// for its report.
type shardRows struct {
	local, test    *data.Dataset
	backboneParams int
}

// rowsEntry is the feature rows of one shardKey, shared by its holders.
// The first holder to receive its model (the owner) decodes its
// backbone and featurizes the shard; the rest keep a copy of their
// backbone's encoding, wait for ready, and alias the owner's rows if
// the two encodings are equal byte for byte, without ever decoding
// theirs.
type rowsEntry struct {
	left    int // holders yet to arrive
	claimed bool
	ready   chan struct{} // closed once the owner has set the fields below

	enc  BackboneAssignment // the owner's encoding
	rows shardRows          // zero if the owner failed
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

// holding is one device's place among its shard's holders: e is nil for
// a device that featurizes alone, owner marks the one that featurizes
// for all, and enc is the device's backbone encoding, its blobs copied
// out of the frame they arrived in.
type holding struct {
	e     *rowsEntry
	owner bool
	enc   BackboneAssignment
}

// arrive checks one holder of key in, as its model arrives and before
// anything of it is decoded: its holding has no entry if the shard is
// private or its entry was already dropped. Only a fresh device
// arrives; a rejoined or restored one featurizes alone.
func (r *sharedRows) arrive(key shardKey) holding {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[key]
	if e == nil {
		return holding{}
	}
	if e.left--; e.left == 0 {
		delete(r.entries, key)
	}
	owner := !e.claimed
	e.claimed = true
	return holding{e: e, owner: owner}
}

// abandon releases the holders waiting on an owner that failed before
// it featurized: they featurize their own rows.
func (h holding) abandon() {
	if h.owner {
		close(h.e.ready)
	}
}

// deviceFeatures returns the feature rows of device devIdx's local and
// test samples under model's frozen backbone. The owner of a shared
// shard and a device that featurizes alone run their backbone; every
// other holder waits for the owner and takes its rows if their two
// encodings are equal, or else decodes its own backbone and featurizes.
// The rows are read-only either way: every holder's refinement, folds
// and evaluations only read them.
func (s *System) deviceFeatures(ctx context.Context, edgeID, devIdx int, model *nas.HeaderModel, h holding) (shardRows, error) {
	key := s.shardOf(edgeID, devIdx)
	if h.e == nil {
		return featurizeShard(model, key)
	}
	if h.owner {
		rows, err := featurizeShard(model, key)
		if err == nil {
			h.e.enc, h.e.rows = h.enc, rows
		}
		close(h.e.ready)
		return rows, err
	}
	select {
	case <-h.e.ready:
	case <-ctx.Done():
		return shardRows{}, ctx.Err()
	}
	if h.e.rows.local != nil && sameEncoding(h.e.enc, h.enc) {
		return h.e.rows, nil
	}
	if model.Backbone == nil {
		bb, err := s.decodeBackbone(h.enc)
		if err != nil {
			return shardRows{}, err
		}
		model.Backbone = bb
	}
	return featurizeShard(model, key)
}

// featurizeShard runs model's backbone over the shard's train and test
// samples.
func featurizeShard(model *nas.HeaderModel, key shardKey) (shardRows, error) {
	local, err := model.Featurize(key.train)
	if err != nil {
		return shardRows{}, err
	}
	test, err := model.Featurize(key.test)
	if err != nil {
		return shardRows{}, err
	}
	return shardRows{local, test, model.Backbone.ActiveParamCount()}, nil
}

// ownEncoding returns asg with its blobs' quantized bytes copied out of
// the frame they alias.
func ownEncoding(asg BackboneAssignment) BackboneAssignment {
	asg.Params = slices.Clone(asg.Params)
	for i := range asg.Params {
		asg.Params[i].Quant = bytes.Clone(asg.Params[i].Quant)
	}
	return asg
}

// sameEncoding reports whether a and b decode to the same backbone: the
// same configuration, active depth and masks, and every blob the same
// shape, mode, scale and bytes.
func sameEncoding(a, b BackboneAssignment) bool {
	if a.Cfg != b.Cfg || a.ActiveDepth != b.ActiveDepth || len(a.Params) != len(b.Params) ||
		!slices.EqualFunc(a.HeadMasks, b.HeadMasks, slices.Equal) ||
		!slices.EqualFunc(a.NeuronMasks, b.NeuronMasks, slices.Equal) {
		return false
	}
	for i := range a.Params {
		p, q := &a.Params[i], &b.Params[i]
		if p.Name != q.Name || p.Rows != q.Rows || p.Cols != q.Cols || p.Mode != q.Mode ||
			math.Float64bits(p.Scale) != math.Float64bits(q.Scale) ||
			!bytes.Equal(p.Quant, q.Quant) || !slices.EqualFunc(p.Data, q.Data, sameBits) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
