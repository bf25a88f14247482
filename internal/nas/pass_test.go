package nas

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nn"
	"acme/internal/tensor"
)

// refTrainHeader is trainHeader as the per-sample loop it replaced: a
// fresh Adam that owns its moments, a fresh logits gradient per sample,
// and every layer accumulating its own gradients in its Backward.
func refTrainHeader(c nn.Classifier, params []*nn.Param, ds *data.Dataset, epochs, batch int, lr float64, rng *rand.Rand) error {
	opt := nn.NewAdam(lr)
	for e := 0; e < epochs; e++ {
		order := rng.Perm(ds.Len())
		for start := 0; start < len(order); start += batch {
			end := min(start+batch, len(order))
			for _, p := range params {
				p.ZeroGrad()
			}
			if err := refBatch(c, ds, order[start:end], float64(end-start)); err != nil {
				return err
			}
			opt.Step(params)
		}
	}
	return nil
}

// refBatch adds the gradients of the samples at idx one Backward after
// another, each logits gradient divided by n.
func refBatch(c nn.Classifier, ds *data.Dataset, idx []int, n float64) error {
	for _, i := range idx {
		logits, err := c.Forward(ds.X[i])
		if err != nil {
			return err
		}
		dl := make([]float64, len(logits))
		nn.CrossEntropy(dl, logits, ds.Y[i])
		for j := range dl {
			dl[j] /= n
		}
		c.Backward(dl)
	}
	return nil
}

// refFoldBatches is Accumulator.FoldBatches over refBatch: the summed
// (g·υ)² terms of up to maxBatches minibatches.
func refFoldBatches(c nn.Classifier, ds *data.Dataset, batch, maxBatches int, rng *rand.Rand) (*importance.Set, error) {
	sum := importance.NewSet(c)
	order := rng.Perm(ds.Len())
	for start, b := 0, 0; start < len(order) && b < maxBatches; start, b = start+batch, b+1 {
		nn.ZeroGrads(c)
		if err := refBatch(c, ds, order[start:min(start+batch, len(order))], 1); err != nil {
			return nil, err
		}
		if err := sum.Accumulate(c); err != nil {
			return nil, err
		}
	}
	nn.ZeroGrads(c)
	return sum, nil
}

// maskedDevice returns two frozen views of one device header with
// channels and hidden neurons masked (the second a Clone), and the
// feature rows of its local data.
func maskedDevice(t *testing.T, seed int64, n int) (a, b *FrozenHeader, feats *data.Dataset) {
	t.Helper()
	h, local, _ := deviceFixture(t, seed, n)
	set, err := ComputeImportanceSet(h, local, 16, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyImportance(set, 24); err != nil {
		t.Fatal(err)
	}
	if h.ActiveParamCount() >= nn.CountParams(h) {
		t.Fatal("nothing masked")
	}
	if feats, err = h.Featurize(local); err != nil {
		t.Fatal(err)
	}
	twin := h.Clone(h.Backbone)
	if a, err = h.Frozen(h.Backbone.Cfg); err != nil {
		t.Fatal(err)
	}
	if b, err = twin.Frozen(twin.Backbone.Cfg); err != nil {
		t.Fatal(err)
	}
	return a, b, feats
}

// TestPassMatchesPerSampleLoop: a FrozenHeader's TrainLocal and
// FoldBatches, whose convolutions and classifier fold their weight
// gradients stacked, four samples at a time, equal the per-sample loops
// bit for bit. The minibatches of 10 put a fold boundary inside every
// minibatch, the last minibatch is short, and the header has masked
// channels and hidden neurons.
func TestPassMatchesPerSampleLoop(t *testing.T) {
	pass, ref, feats := maskedDevice(t, 17, 64)
	if err := pass.TrainLocal(feats, 2, 10, 2e-3, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if err := refTrainHeader(ref, ref.Params(), feats, 2, 10, 2e-3, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	got, want := pass.Params(), ref.Params()
	for i := range got {
		if !bitsEqual(got[i].Value.Data, want[i].Value.Data) {
			t.Errorf("TrainLocal: %s differs from the per-sample loop", got[i].Name)
		}
	}

	acc := importance.NewAccumulator()
	if _, err := acc.FoldBatches(pass, feats, 10, 5, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	sum, err := refFoldBatches(ref, feats, 10, 5, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	avg, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	sum.Scale(1.0 / 5)
	for l := range avg.Layers {
		if !bitsEqual(avg.Layers[l], sum.Layers[l]) {
			t.Errorf("FoldBatches: layer %d (%s) differs from the per-sample loop", l, got[l].Name)
		}
	}
}

// heldBuffers lists, by field path, every layer buffer reachable from
// v that still has storage: a tensor.Matrix or a []float64 outside the
// parameters (nn.Param) and the backbone, which are the weights.
func heldBuffers(v reflect.Value, path string, seen map[uintptr]bool) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] || v.Type() == reflect.TypeFor[*nn.Param]() || v.Type() == reflect.TypeFor[*nn.Backbone]() {
			return nil
		}
		seen[v.Pointer()] = true
		return heldBuffers(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return heldBuffers(v.Elem(), path, seen)
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[tensor.Matrix]() {
			if v.FieldByName("Data").Len() > 0 {
				return []string{path}
			}
			return nil
		}
		var held []string
		for i := 0; i < v.NumField(); i++ {
			held = append(held, heldBuffers(v.Field(i), path+"."+v.Type().Field(i).Name, seen)...)
		}
		return held
	case reflect.Slice, reflect.Array:
		if v.Type().Elem().Kind() == reflect.Float64 {
			if v.Len() > 0 {
				return []string{path}
			}
			return nil
		}
		var held []string
		for i := 0; i < v.Len(); i++ {
			held = append(held, heldBuffers(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
		return held
	}
	return nil
}

// TestPassesGiveBackScratch: TrainLocal, FoldBatches, Evaluate and a
// shared search step give back every scratch slab they borrow, also
// when a sample fails in the middle of a minibatch, after a fold and
// with records pending; and a device header holds only its weights
// between calls: no gradient and no layer buffer.
func TestPassesGiveBackScratch(t *testing.T) {
	fh, _, feats := maskedDevice(t, 19, 48)
	lent := func(what string) {
		t.Helper()
		if n := nn.Lent(); n != 0 {
			t.Errorf("%s: %d scratch slabs still lent", what, n)
		}
	}
	holdsNothing := func(what string) {
		t.Helper()
		lent(what)
		for _, p := range fh.Params() {
			if p.Grad != nil {
				t.Errorf("%s: %s kept its gradient", what, p.Name)
			}
		}
		for _, f := range heldBuffers(reflect.ValueOf(fh), "header", map[uintptr]bool{}) {
			t.Errorf("%s: %s kept its buffer", what, f)
		}
	}
	if err := fh.TrainLocal(feats, 1, 16, 2e-3, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	holdsNothing("TrainLocal")
	acc := importance.NewAccumulator()
	if _, err := acc.FoldBatches(fh, feats, 16, 3, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	holdsNothing("FoldBatches")
	if _, err := nn.Evaluate(fh, feats.X, feats.Y); err != nil {
		t.Fatal(err)
	}
	holdsNothing("Evaluate")

	// A feature row of the wrong length as the sixth sample of the first
	// minibatch each call draws.
	bad := func(seed int64) *data.Dataset {
		ds := *feats
		ds.X = append([][]float64(nil), feats.X...)
		i := rand.New(rand.NewSource(seed)).Perm(ds.Len())[5]
		ds.X[i] = ds.X[i][:7]
		return &ds
	}
	if err := fh.TrainLocal(bad(5), 1, 16, 2e-3, rand.New(rand.NewSource(5))); err == nil {
		t.Error("TrainLocal over a short feature row succeeded")
	}
	holdsNothing("TrainLocal that fails")
	if _, err := acc.FoldBatches(fh, bad(6), 16, 3, rand.New(rand.NewSource(6))); err == nil {
		t.Error("FoldBatches over a short feature row succeeded")
	}
	holdsNothing("FoldBatches that fails")
	short := bad(7)
	short.X[5] = short.X[5][:7]
	if _, err := nn.Evaluate(fh, short.X, short.Y); err == nil {
		t.Error("Evaluate over a short feature row succeeded")
	}
	holdsNothing("Evaluate that fails")

	s, _ := searchFixture(t, 7)
	if err := s.trainSharedStep(); err != nil {
		t.Fatal(err)
	}
	lent("trainSharedStep")
	train := *s.train
	train.X = append([][]float64(nil), s.train.X...)
	for i := 1; i < len(train.X); i += 2 {
		train.X[i] = train.X[i][:3]
	}
	s.train = &train
	if err := s.trainSharedStep(); err == nil {
		t.Error("trainSharedStep over short samples succeeded")
	}
	lent("trainSharedStep that fails")
}

// TestDevicesShareThePool: device headers that train, fold and evaluate
// on goroutines of their own borrow gradients, records and layer
// buffers from one pool, and each ends bit-identical to a twin run
// alone. Under -race (make race) it also checks that a slab handed from
// one goroutine to the next is not still written by the first.
func TestDevicesShareThePool(t *testing.T) {
	const devices = 4
	run := func(fh *FrozenHeader, feats *data.Dataset, seed int64) (*importance.Set, float64, error) {
		rng := rand.New(rand.NewSource(seed))
		if err := fh.TrainLocal(feats, 2, 10, 2e-3, rng); err != nil {
			return nil, 0, err
		}
		acc := importance.NewAccumulator()
		if _, err := acc.FoldBatches(fh, feats, 10, 3, rng); err != nil {
			return nil, 0, err
		}
		set, err := acc.Average()
		if err != nil {
			return nil, 0, err
		}
		a, err := nn.Evaluate(fh, feats.X, feats.Y)
		return set, a, err
	}
	var heads, twins [devices]*FrozenHeader
	var feats [devices]*data.Dataset
	for i := range heads {
		heads[i], twins[i], feats[i] = maskedDevice(t, int64(31+i), 40)
	}
	var sets [devices]*importance.Set
	var accs [devices]float64
	var errs [devices]error
	var wg sync.WaitGroup
	for i := range heads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[i], accs[i], errs[i] = run(heads[i], feats[i], int64(i))
		}()
	}
	wg.Wait()
	if n := nn.Lent(); n != 0 {
		t.Errorf("%d scratch slabs still lent", n)
	}
	for i := range heads {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		set, acc, err := run(twins[i], feats[i], int64(i))
		if err != nil {
			t.Fatal(err)
		}
		got, want := heads[i].Params(), twins[i].Params()
		for k := range got {
			if !bitsEqual(got[k].Value.Data, want[k].Value.Data) {
				t.Errorf("device %d: %s differs from its twin trained alone", i, got[k].Name)
			}
		}
		for l := range set.Layers {
			if !bitsEqual(sets[i].Layers[l], set.Layers[l]) {
				t.Errorf("device %d: importance layer %d differs from its twin's", i, l)
			}
		}
		if accs[i] != acc {
			t.Errorf("device %d: accuracy %v, its twin's %v", i, accs[i], acc)
		}
	}
}

// TestTrainLocalBorrowsItsMemory: after a warm-up call, a one-epoch
// TrainLocal allocates no logits gradient per sample and no moment slab
// (its Adam borrows one), and stays far under one allocation per sample.
// The collector is off while it measures, so the pool keeps what it was
// given back.
func TestTrainLocalBorrowsItsMemory(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's sync.Pool drops pooled objects on purpose")
	}
	h, local, _ := deviceFixture(t, 13, 128)
	fh, err := h.Frozen(h.Backbone.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := h.Featurize(local)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(1))
	epoch := func() {
		if err := fh.TrainLocal(feats, 1, 16, 2e-3, rng); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	if got, limit := testing.AllocsPerRun(3, epoch), float64(feats.Len()/8); got > limit {
		t.Errorf("one TrainLocal epoch allocates %.0f objects over %d samples, want at most %.0f", got, feats.Len(), limit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	epoch()
	runtime.ReadMemStats(&after)
	moments := 2 * 8 * nn.CountParams(fh)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(moments)/4 {
		t.Errorf("one TrainLocal epoch allocates %d bytes, want under a quarter of its %d bytes of moments", got, moments)
	}
}
