package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomPayload builds a packed array of n elements of width elem.
func randomPayload(rng *rand.Rand, n, elem int) []byte {
	b := make([]byte, n*elem)
	rng.Read(b)
	return b
}

// mutate returns a copy of prev with roughly frac of its elements
// replaced by fresh random bytes.
func mutate(rng *rand.Rand, prev []byte, elem int, frac float64) []byte {
	cur := append([]byte(nil), prev...)
	n := len(prev) / elem
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			rng.Read(cur[i*elem : (i+1)*elem])
		}
	}
	return cur
}

// TestDeltaRoundTripProperty drives random payload pairs of every
// element width and sparsity through Diff→Apply: the reconstruction
// must equal cur bitwise, dense or sparse.
func TestDeltaRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		elem := []int{1, 2, 4}[rng.Intn(3)]
		n := rng.Intn(300)
		frac := []float64{0, 0.01, 0.1, 0.5, 1}[rng.Intn(5)]
		prev := randomPayload(rng, n, elem)
		cur := mutate(rng, prev, elem, frac)
		d := DiffLayer(prev, cur, elem)
		got, err := d.Apply(prev)
		if err != nil {
			t.Fatalf("trial %d (n=%d elem=%d frac=%v dense=%v): %v", trial, n, elem, frac, d.Dense, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: reconstruction differs (n=%d elem=%d frac=%v dense=%v)", trial, n, elem, frac, d.Dense)
		}
		// The chosen form (mask plus packed elements) never exceeds the
		// dense payload size.
		if size := len(d.Mask) + len(d.Changed); size > n*elem && n > 0 {
			t.Fatalf("trial %d: delta %d bytes exceeds dense %d", trial, size, n*elem)
		}
	}
}

// TestDeltaSparseWhenRedundant asserts the sparse form is chosen (and
// is much smaller) when few elements change.
func TestDeltaSparseWhenRedundant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	prev := randomPayload(rng, 1024, 4)
	cur := mutate(rng, prev, 4, 0.02)
	d := DiffLayer(prev, cur, 4)
	if d.Dense {
		t.Fatal("2% change must take the sparse form")
	}
	if size := len(d.Mask) + len(d.Changed); size > 1024 {
		t.Fatalf("sparse delta too large: %d bytes for 4096 dense", size)
	}
}

// TestDeltaDenseFallback covers the cases that must fall back dense:
// everything changed, and a shape change between rounds.
func TestDeltaDenseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prev := randomPayload(rng, 64, 2)
	allNew := randomPayload(rng, 64, 2)
	if d := DiffLayer(prev, allNew, 2); !d.Dense {
		// Statistically a few elements may collide; the mask overhead
		// still makes sparse ≥ dense, which DiffLayer must detect.
		t.Fatalf("full change kept sparse form (%d changed bytes)", len(d.Changed))
	}
	grown := randomPayload(rng, 80, 2)
	d := DiffLayer(prev, grown, 2)
	if !d.Dense || d.N != 80 {
		t.Fatalf("shape change must force dense: %+v", d)
	}
	if got, err := d.Apply(nil); err != nil || !bytes.Equal(got, grown) {
		t.Fatalf("dense apply after shape change: %v", err)
	}
}

// TestDeltaApplyRejectsCorrupt feeds Apply adversarial records: wrong
// shadow length, truncated element block, oversized bitmask, spare
// bits set beyond N, and a popcount/payload mismatch.
func TestDeltaApplyRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prev := randomPayload(rng, 32, 4)
	cur := mutate(rng, prev, 4, 0.1)
	good := DiffLayer(prev, cur, 4)
	if good.Dense {
		t.Skip("seed produced a dense delta; corrupt-mask cases need sparse")
	}

	check := func(name string, d DeltaLayer, shadow []byte) {
		if _, err := d.Apply(shadow); err == nil {
			t.Fatalf("%s: corrupt delta accepted", name)
		}
		// Only the shadow is outside the record: Check alone refuses the rest.
		if err := d.Check(); err == nil && name != "short shadow" {
			t.Fatalf("%s: Check passed a corrupt record", name)
		}
	}
	check("short shadow", good, prev[:len(prev)-4])
	trunc := good
	trunc.Changed = trunc.Changed[:len(trunc.Changed)-1]
	check("truncated elements", trunc, prev)
	badMask := good
	badMask.Mask = append(append([]byte(nil), good.Mask...), 0xff)
	check("oversized bitmask", badMask, prev)
	flipped := good
	flipped.Mask = append([]byte(nil), good.Mask...)
	flipped.Mask[0] ^= 0xff // popcount no longer matches Changed
	check("popcount mismatch", flipped, prev)
	negative := good
	negative.N = -1
	check("negative N", negative, prev)
	zeroElem := good
	zeroElem.Elem = 0
	check("zero element width", zeroElem, prev)

	denseShort := DeltaLayer{N: 32, Elem: 4, Dense: true, Changed: make([]byte, 100)}
	check("dense wrong size", denseShort, nil)

	// Spare bits beyond N must be rejected even when the payload length
	// happens to match.
	spare := DeltaLayer{N: 3, Elem: 1, Mask: []byte{0xf1}, Changed: []byte{1, 2, 3, 4, 5}}
	check("spare bits", spare, []byte{9, 9, 9})
}

// TestDeltaEmpty covers the zero-element layer.
func TestDeltaEmpty(t *testing.T) {
	d := DiffLayer(nil, nil, 4)
	got, err := d.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty layer reconstructed %d bytes", len(got))
	}
}

// TestDeltaEncodesThroughCodec round-trips a DeltaLayer through its
// schema, the path the transport actually uses.
func TestDeltaEncodesThroughCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prev := randomPayload(rng, 128, 2)
	cur := mutate(rng, prev, 2, 0.05)
	in := DiffLayer(prev, cur, 2)
	raw, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out DeltaLayer
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	got, err := out.Apply(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("codec round trip lost delta fidelity")
	}
}

// TestDeltaApplyInPlace: Apply patches the shadow it is given and
// returns it. A sparse record writes only its changed elements, a dense
// one overwrites the shadow in its own storage when that is large
// enough (and in a new slice when it is not), and a refused record
// leaves the shadow as it was.
func TestDeltaApplyInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	prev := randomPayload(rng, 256, 2)
	cur := mutate(rng, prev, 2, 0.05)
	sparse := DiffLayer(prev, cur, 2)
	if sparse.Dense {
		t.Fatal("5% change must take the sparse form")
	}
	shadow := bytes.Clone(prev)
	got, err := sparse.Apply(shadow)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &shadow[0] || !bytes.Equal(shadow, cur) {
		t.Fatal("sparse apply did not patch the shadow in place")
	}

	next := randomPayload(rng, 200, 2)
	dense := DiffLayer(nil, next, 2)
	if got, err = dense.Apply(shadow); err != nil {
		t.Fatal(err)
	}
	if &got[0] != &shadow[0] || !bytes.Equal(got, next) {
		t.Fatal("dense apply into a larger shadow did not reuse its storage")
	}
	grown := randomPayload(rng, 300, 2)
	larger := DiffLayer(nil, grown, 2)
	if got, err = larger.Apply(got); err != nil || !bytes.Equal(got, grown) {
		t.Fatalf("dense apply into a smaller shadow: %v", err)
	}

	before := bytes.Clone(got)
	bad := DiffLayer(before, mutate(rng, before, 2, 0.05), 2)
	bad.Changed = bad.Changed[:len(bad.Changed)-1]
	if _, err := bad.Apply(got); err == nil {
		t.Fatal("corrupt record accepted")
	}
	if !bytes.Equal(got, before) {
		t.Fatal("a refused record changed the shadow")
	}
}
