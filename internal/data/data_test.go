package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSpec() Spec {
	s := CIFAR100Like()
	s.NumClasses = 20
	s.NumSuper = 4
	return s
}

func TestGeneratorDeterministicMeans(t *testing.T) {
	g1, err := NewGenerator(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c += 7 {
		m1, m2 := g1.classMeans[c], g2.classMeans[c]
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("class %d mean differs between generators", c)
			}
		}
	}
}

func TestSampleRespectsClasses(t *testing.T) {
	g, err := NewGenerator(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	classes := []int{3, 7, 11}
	ds := g.Sample(200, classes, rng)
	allowed := map[int]bool{3: true, 7: true, 11: true}
	for _, y := range ds.Y {
		if !allowed[y] {
			t.Fatalf("label %d outside allowed classes (no label noise configured)", y)
		}
	}
	if ds.Len() != 200 || ds.Dim != 64 {
		t.Fatalf("bad dataset shape: %d × %d", ds.Len(), ds.Dim)
	}
}

func TestLabelNoise(t *testing.T) {
	spec := testSpec()
	spec.LabelNoise = 1.0 // every label resampled uniformly
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Sample(500, []int{0}, rand.New(rand.NewSource(2)))
	var offClass int
	for _, y := range ds.Y {
		if y != 0 {
			offClass++
		}
	}
	if offClass < 400 {
		t.Fatalf("full label noise produced only %d/500 off-class labels", offClass)
	}
}

func TestSuperclassGeometry(t *testing.T) {
	g, err := NewGenerator(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Classes 0..4 share superclass 0; class 5 is in superclass 1.
	sameSuper := dist(g.classMeans[0], g.classMeans[1])
	crossSuper := dist(g.classMeans[0], g.classMeans[5])
	if sameSuper >= crossSuper {
		t.Fatalf("within-super distance %.2f ≥ cross-super %.2f", sameSuper, crossSuper)
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestClassHistogramSumsToOne(t *testing.T) {
	g, _ := NewGenerator(testSpec())
	ds := g.Sample(123, nil, rand.New(rand.NewSource(3)))
	var sum float64
	for _, v := range ds.ClassHistogram() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("histogram sums to %v", sum)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	g, _ := NewGenerator(testSpec())
	ds := g.Sample(100, nil, rand.New(rand.NewSource(4)))
	train, test := ds.Split(0.8, rand.New(rand.NewSource(5)))
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestPartitionIIDCoversAllClasses(t *testing.T) {
	g, _ := NewGenerator(testSpec())
	shards, err := Partition(g, PartitionSpec{
		Devices: 3, SamplesPerDev: 400, Level: IID,
	}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards", len(shards))
	}
	seen := map[int]bool{}
	for _, y := range shards[0].Y {
		seen[y] = true
	}
	if len(seen) < 15 {
		t.Fatalf("IID shard covers only %d/20 classes", len(seen))
	}
}

func TestPartitionNonIIDRestrictsClasses(t *testing.T) {
	g, _ := NewGenerator(testSpec())
	shards, err := Partition(g, PartitionSpec{
		Devices: 4, SamplesPerDev: 200, ClassesPerDev: 4, Level: C1, DistinctGroups: 2,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i, shard := range shards {
		seen := map[int]bool{}
		for _, y := range shard.Y {
			seen[y] = true
		}
		// 4 base classes, plus some mixing and label noise.
		if len(seen) > 10 {
			t.Fatalf("C1 shard %d covers %d classes, expected a restricted set", i, len(seen))
		}
	}
}

func TestPartitionConfusionIncreasesEntropy(t *testing.T) {
	g, _ := NewGenerator(testSpec())
	ent := func(level ConfusionLevel) float64 {
		shards, err := Partition(g, PartitionSpec{
			Devices: 4, SamplesPerDev: 400, ClassesPerDev: 4, Level: level, DistinctGroups: 2,
		}, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, sh := range shards {
			for _, p := range sh.ClassHistogram() {
				if p > 0 {
					total -= p * math.Log(p)
				}
			}
		}
		return total
	}
	if e1, e3 := ent(C1), ent(C3); e3 <= e1 {
		t.Fatalf("C3 entropy %.3f not above C1 %.3f", e3, e1)
	}
}

func TestFeatureExtractorDeterministic(t *testing.T) {
	f1 := NewFeatureExtractor(8, 4, 42)
	f2 := NewFeatureExtractor(8, 4, 42)
	x := []float64{1, -1, 0.5, 2, -2, 0, 3, -3}
	a, b := f1.Extract(x), f2.Extract(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same features")
		}
		if a[i] < -1 || a[i] > 1 {
			t.Fatalf("tanh feature out of range: %v", a[i])
		}
	}
}

func TestFeatureExtractorPreservesNeighborhoods(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := NewFeatureExtractor(16, 8, 1)
		x := make([]float64, 16)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		near := append([]float64(nil), x...)
		near[0] += 0.01
		far := make([]float64, 16)
		for i := range far {
			far[i] = x[i] + 3*rng.NormFloat64()
		}
		return dist(fx.Extract(x), fx.Extract(near)) <= dist(fx.Extract(x), fx.Extract(far))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeBounds(t *testing.T) {
	g, _ := NewGenerator(testSpec())
	ds := g.Sample(50, nil, rand.New(rand.NewSource(9)))
	p := Probe(ds, 10, rand.New(rand.NewSource(10)))
	if p.Len() != 10 {
		t.Fatalf("probe size %d", p.Len())
	}
	if Probe(ds, 100, rand.New(rand.NewSource(11))).Len() != 50 {
		t.Fatal("oversized probe should return the full set")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := testSpec()
	bad.NumSuper = 3 // 20 % 3 != 0
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("expected validation error")
	}
	bad2 := testSpec()
	bad2.LabelNoise = 1.5
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected label-noise validation error")
	}
}
