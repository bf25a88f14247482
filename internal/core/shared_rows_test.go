package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"acme/internal/data"
	"acme/internal/nas"
	"acme/internal/nn"
)

// sharedShardConfig is a tinyConfig-sized fleet whose devices share
// data shards: 2 edges × 6 devices over 2 data groups, so each cluster
// holds every shard several times, sampled at half participation.
func sharedShardConfig() Config {
	cfg := tinyConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 6
	cfg.Fleet.SharedShards = true
	cfg.Fleet.SampleFrac = 0.5
	cfg.DataGroups = 2
	cfg.Phase2Rounds = 2
	return cfg
}

// TestSharedShardFleetPinned pins a shared-shard fleet's reports and
// per-kind traffic to the values each device produced when it
// featurized its own copy of its shard. It runs under -race too, where
// the cluster's holders read the same feature rows concurrently.
func TestSharedShardFleetPinned(t *testing.T) {
	cfg := sharedShardConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sys.rows.entries); n != 4 {
		t.Fatalf("%d shared shards, want 2 per cluster", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 12 {
		t.Fatalf("%d reports, want 12", len(res.Reports))
	}
	if n := len(sys.rows.entries); n != 0 {
		t.Fatalf("%d shared-row entries outlived the run", n)
	}
	h := fnv.New64a()
	for _, rep := range res.Reports {
		fmt.Fprintf(h, "%+v\n", rep)
	}
	bytes, msgs := res.Stats.BytesByKind(), res.Stats.MessagesByKind()
	for _, k := range res.Stats.Kinds() {
		fmt.Fprintf(h, "%v %d %d\n", k, bytes[k], msgs[k])
	}
	const want uint64 = 0xcd2c3e2c96c95928
	if got := h.Sum64(); got != want {
		t.Fatalf("shared-shard fleet hash %#x, want %#x", got, want)
	}
}

// sharedShardFixture returns a shared-shard System, the key of a shard
// its first cluster holds more than once, that shard's holders, and a
// frozen-backbone header whose backbone each holder's model clones.
func sharedShardFixture(t *testing.T) (*System, shardKey, []int, *nas.HeaderModel) {
	t.Helper()
	sys, err := NewSystem(sharedShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	var key shardKey
	var holders []int
	for _, di := range sys.clusters[0] {
		k := shardKey{0, sys.devTrain[di], sys.devTest[di]}
		if holders == nil && sys.rows.entries[k] != nil {
			key = k
		}
		if k == key {
			holders = append(holders, di)
		}
	}
	if len(holders) < 2 {
		t.Fatalf("cluster 0 holds no shard twice")
	}
	rng := rand.New(rand.NewSource(5))
	bb, err := nn.NewBackbone(sys.Cfg.Backbone, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nas.HeaderConfig{Blocks: 2, Repeats: 1, DModel: bb.Cfg.DModel, Hidden: 8, NumClasses: sys.Cfg.NumClasses}
	h, err := nas.NewHeaderModel(cfg, nas.RandomArchitecture(2, rng), bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sys, key, holders, h
}

// holderModel is h over a copy of its backbone, as a device decodes it.
func holderModel(h *nas.HeaderModel) *nas.HeaderModel { return h.Clone(h.Backbone.Clone()) }

// sameRows reports whether two feature datasets share row storage.
func sameRows(a, b *data.Dataset) bool { return &a.X[0][0] == &b.X[0][0] }

// TestSharedRowsNeedSameBackboneBits: a holder whose backbone differs
// from the first holder's in one bit of one parameter featurizes its own
// rows instead of taking the first holder's.
func TestSharedRowsNeedSameBackboneBits(t *testing.T) {
	sys, key, holders, h := sharedShardFixture(t)
	ctx := context.Background()
	ownerLocal, ownerTest, err := sys.deviceFeatures(ctx, 0, holders[0], holderModel(h))
	if err != nil {
		t.Fatal(err)
	}
	flipped := holderModel(h)
	p := flipped.Backbone.Params()[0].Value.Data
	p[0] = math.Float64frombits(math.Float64bits(p[0]) ^ 1)
	local, test, err := sys.deviceFeatures(ctx, 0, holders[1], flipped)
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(local, ownerLocal) || sameRows(test, ownerTest) {
		t.Fatal("a holder one bit apart took the first holder's rows")
	}
	want, _, err := featurizeShard(flipped, key)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range want.X {
		if !slices.Equal(local.X[i], row) {
			t.Fatalf("local row %d is not the holder's own", i)
		}
	}
}

// TestSharedRowsReleasedByLastHolder: every holder the System counted
// takes the same rows, concurrently; the last one drops the entry, and a
// holder arriving after that (a rejoining device) featurizes alone and
// leaves no entry behind.
func TestSharedRowsReleasedByLastHolder(t *testing.T) {
	sys, key, holders, h := sharedShardFixture(t)
	ctx := context.Background()
	locals := make([]*data.Dataset, len(holders))
	errs := make([]error, len(holders))
	var wg sync.WaitGroup
	for i, di := range holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			locals[i], _, errs[i] = sys.deviceFeatures(ctx, 0, di, holderModel(h))
		}()
	}
	wg.Wait()
	for i := range holders {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameRows(locals[i], locals[0]) {
			t.Fatalf("holder %d of %d featurized its own rows", i, len(holders))
		}
	}
	if sys.rows.entries[key] != nil {
		t.Fatal("entry outlived its last holder")
	}
	late, _, err := sys.deviceFeatures(ctx, 0, holders[0], holderModel(h))
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(late, locals[0]) {
		t.Fatal("a holder after release took the released rows")
	}
	if sys.rows.entries[key] != nil {
		t.Fatal("a holder after release left an entry behind")
	}
}
