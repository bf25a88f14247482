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
	"acme/internal/pareto"
	"acme/internal/transport"
	"acme/internal/wire"
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
// Re-pinned once since, when parameter blobs stopped carrying their
// parameter's name: the reports stayed, and the backbone and header
// kinds shrank by 1 448 B and 10 260 B.
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
	// Every device holds a shared shard, and only each shard's owner
	// decodes its backbone.
	if n := sys.backboneDecodes.Load(); n != 4 {
		t.Fatalf("devices decoded %d backbones, want one per shared shard (4)", n)
	}
	h := fnv.New64a()
	for _, rep := range res.Reports {
		fmt.Fprintf(h, "%+v\n", rep)
	}
	bytes, msgs := res.Stats.BytesByKind(), res.Stats.MessagesByKind()
	for _, k := range res.Stats.Kinds() {
		fmt.Fprintf(h, "%v %d %d\n", k, bytes[k], msgs[k])
	}
	const want uint64 = 0x269758d47c07f89e
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

// holderModel is h over a copy of its backbone, as an owner decodes it.
func holderModel(h *nas.HeaderModel) *nas.HeaderModel { return h.Clone(h.Backbone.Clone()) }

// arriveWith checks a holder of key in as runDevice does, its model
// packaged with backbone encoding enc: the owner's model holds h's
// backbone, any other holder's none.
func arriveWith(sys *System, key shardKey, h *nas.HeaderModel, enc BackboneAssignment) (*nas.HeaderModel, holding) {
	hold := sys.rows.arrive(key)
	hold.enc = enc
	if hold.e == nil || hold.owner {
		return holderModel(h), hold
	}
	return h.Clone(nil), hold
}

// cloneEncoding returns asg with its parameter list and its blobs'
// quantized bytes copied, so a test can change one without the other.
func cloneEncoding(asg BackboneAssignment) BackboneAssignment {
	asg.Params = slices.Clone(asg.Params)
	for i := range asg.Params {
		asg.Params[i].Quant = slices.Clone(asg.Params[i].Quant)
	}
	return asg
}

// sameRows reports whether two feature datasets share row storage.
func sameRows(a, b *data.Dataset) bool { return &a.X[0][0] == &b.X[0][0] }

// TestSharedRowsNeedSameBackboneBits: holders compare their backbone's
// encoding with the owner's. One whose encoding is equal takes the
// owner's rows and never decodes its backbone; one whose int8 encoding
// differs in one blob byte decodes its own backbone and featurizes its
// own rows. The comparison also tells apart lossless encodings one bit
// apart and int8 ones with different scales.
func TestSharedRowsNeedSameBackboneBits(t *testing.T) {
	sys, key, holders, h := sharedShardFixture(t)
	if len(holders) < 3 {
		t.Fatalf("cluster 0 holds the shard %d times, want 3", len(holders))
	}
	ctx := context.Background()
	enc := EncodeBackbone(h.Backbone, 1, h.Backbone.Cfg.Depth, pareto.Candidate{}, QuantInt8)
	model, hold := arriveWith(sys, key, h, enc)
	if !hold.owner {
		t.Fatal("the first holder to arrive does not own the shard")
	}
	owner, err := sys.deviceFeatures(ctx, 0, holders[0], model, hold)
	if err != nil {
		t.Fatal(err)
	}

	flipped := cloneEncoding(enc)
	flipped.Params[0].Quant[0] ^= 1
	model, hold = arriveWith(sys, key, h, flipped)
	own, err := sys.deviceFeatures(ctx, 0, holders[1], model, hold)
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(own.local, owner.local) || sameRows(own.test, owner.test) {
		t.Fatal("a holder one byte apart took the owner's rows")
	}
	if n := sys.backboneDecodes.Load(); n != 1 {
		t.Fatalf("%d backbone decodes, want the one of the holder one byte apart", n)
	}
	bb, err := DecodeBackbone(flipped)
	if err != nil {
		t.Fatal(err)
	}
	want, err := featurizeShard(h.Clone(bb), key)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range want.local.X {
		if !slices.Equal(own.local.X[i], row) {
			t.Fatalf("local row %d is not the holder's own", i)
		}
	}

	model, hold = arriveWith(sys, key, h, cloneEncoding(enc))
	same, err := sys.deviceFeatures(ctx, 0, holders[2], model, hold)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(same.local, owner.local) || !sameRows(same.test, owner.test) || same.backboneParams != owner.backboneParams {
		t.Fatal("a holder with the owner's encoding did not take its rows")
	}
	if model.Backbone != nil || sys.backboneDecodes.Load() != 1 {
		t.Fatal("a holder with the owner's encoding decoded its backbone")
	}

	lossless := EncodeBackbone(h.Backbone, 1, h.Backbone.Cfg.Depth, pareto.Candidate{}, QuantLossless)
	bit := cloneEncoding(lossless)
	bit.Params[0].Data = slices.Clone(bit.Params[0].Data)
	bit.Params[0].Data[0] = math.Float64frombits(math.Float64bits(bit.Params[0].Data[0]) ^ 1)
	scaled := cloneEncoding(enc)
	scaled.Params[0].Scale = math.Nextafter(scaled.Params[0].Scale, 0)
	if !sameEncoding(lossless, cloneEncoding(lossless)) || sameEncoding(lossless, bit) || sameEncoding(enc, scaled) {
		t.Fatal("sameEncoding misjudges a lossless bit or an int8 scale")
	}
}

// TestSameEncodingReadsShapeModeScaleBytes: blobs carry no names, so
// sameEncoding tells encodings apart by each blob's shape, mode, scale
// and bytes alone. Identical encodings are equal, and one change to any
// of those in one blob makes them unequal.
func TestSameEncodingReadsShapeModeScaleBytes(t *testing.T) {
	bb := codecBackbone(t, rand.New(rand.NewSource(5)))
	enc := EncodeBackbone(bb, 1, bb.Cfg.Depth, pareto.Candidate{}, QuantInt8)
	if !sameEncoding(enc, cloneEncoding(enc)) {
		t.Fatal("an encoding differs from its copy")
	}
	last := len(enc.Params) - 1
	for name, change := range map[string]func(*ParamBlob){
		"scale":      func(p *ParamBlob) { p.Scale = math.Nextafter(p.Scale, 1) },
		"quant byte": func(p *ParamBlob) { p.Quant[len(p.Quant)-1] ^= 0x80 },
		"shape":      func(p *ParamBlob) { p.Rows, p.Cols = p.Cols, p.Rows },
		"mode":       func(p *ParamBlob) { p.Mode = QuantFloat16 },
	} {
		changed := cloneEncoding(enc)
		change(&changed.Params[last])
		if sameEncoding(enc, changed) || sameEncoding(changed, enc) {
			t.Errorf("encodings one blob %s apart are equal", name)
		}
	}
}

// TestSharedRowsReleasedByLastHolder: every holder the System counted
// takes the same rows, concurrently, and only the owner decodes; the
// last one to arrive drops the entry, and a holder arriving after that
// featurizes alone and leaves no entry behind.
func TestSharedRowsReleasedByLastHolder(t *testing.T) {
	sys, key, holders, h := sharedShardFixture(t)
	ctx := context.Background()
	enc := EncodeBackbone(h.Backbone, 1, h.Backbone.Cfg.Depth, pareto.Candidate{}, QuantFloat16)
	rows := make([]shardRows, len(holders))
	errs := make([]error, len(holders))
	var wg sync.WaitGroup
	for i, di := range holders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			model, hold := arriveWith(sys, key, h, cloneEncoding(enc))
			rows[i], errs[i] = sys.deviceFeatures(ctx, 0, di, model, hold)
		}()
	}
	wg.Wait()
	for i := range holders {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameRows(rows[i].local, rows[0].local) {
			t.Fatalf("holder %d of %d featurized its own rows", i, len(holders))
		}
	}
	if n := sys.backboneDecodes.Load(); n != 0 {
		t.Fatalf("%d holders decoded a backbone", n)
	}
	if sys.rows.entries[key] != nil {
		t.Fatal("entry outlived its last holder")
	}
	model, hold := arriveWith(sys, key, h, enc)
	if hold.e != nil {
		t.Fatal("a holder after release found an entry")
	}
	late, err := sys.deviceFeatures(ctx, 0, holders[0], model, hold)
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(late.local, rows[0].local) {
		t.Fatal("a holder after release took the released rows")
	}
	if sys.rows.entries[key] != nil {
		t.Fatal("a holder after release left an entry behind")
	}
}

// TestSharedRowsOwnerFrameOutlivesEarlyLeavers: holders that give up
// before the owner has featurized (a failed decode, a cancelled wait)
// leave it the last one done, and its frame, which it hands to the
// entry, is still released — by the owner itself.
func TestSharedRowsOwnerFrameOutlivesEarlyLeavers(t *testing.T) {
	sys, key, holders, h := sharedShardFixture(t)
	enc := EncodeBackbone(h.Backbone, 1, h.Backbone.Cfg.Depth, pareto.Candidate{}, QuantInt8)
	start := wire.Leased()
	leasedFrame := func() transport.Message { return transport.Message{}.WithLease(wire.Lease(0)) }
	model, owner := arriveWith(sys, key, h, enc)
	owner.frame = leasedFrame()
	for range holders[1:] {
		_, hold := arriveWith(sys, key, h, cloneEncoding(enc))
		hold.frame = leasedFrame()
		hold.abandon()
	}
	if _, err := sys.deviceFeatures(context.Background(), 0, holders[0], model, owner); err != nil {
		t.Fatal(err)
	}
	if n := wire.Leased() - start; n != 0 {
		t.Fatalf("%d frames still leased once every holder is done", n)
	}
}
