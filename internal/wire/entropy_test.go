package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

type entropyPayload struct {
	Name   string
	Round  int
	Dense  []float64
	Small  []float32
	Quant  []byte
	Mask   []bool
	Labels []int
	Done   bool
}

func (p *entropyPayload) WireFields(f *Fields) {
	f.Struct(8)
	f.String(&p.Name)
	f.Int(&p.Round)
	f.F64s(&p.Dense)
	f.F32s(&p.Small)
	f.Bytes(&p.Quant)
	f.Bools(&p.Mask)
	f.Ints(&p.Labels)
	f.Bool(&p.Done)
}

func (p entropyPayload) WireValue(f *Fields) { p.WireFields(f) }

func makeEntropyPayload(rng *rand.Rand, n int) entropyPayload {
	p := entropyPayload{Name: "layer-0", Round: 7, Done: true}
	for i := 0; i < n; i++ {
		p.Dense = append(p.Dense, rng.NormFloat64())
		p.Small = append(p.Small, float32(rng.NormFloat64()))
		p.Quant = append(p.Quant, byte(rng.Intn(32)))
		p.Mask = append(p.Mask, rng.Intn(4) == 0)
		p.Labels = append(p.Labels, rng.Intn(10))
	}
	return p
}

func TestEntropyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 100, 5000} {
		p := makeEntropyPayload(rng, n)
		plain, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		coded := EntropyCompress(plain)
		if n >= 100 && !IsEntropy(coded) {
			t.Fatalf("n=%d: expected entropy frame to win, stayed plain (%d bytes)", n, len(plain))
		}
		if IsEntropy(coded) {
			if pl, ok := EntropyInfo(coded); !ok || pl != len(plain) {
				t.Fatalf("n=%d: EntropyInfo = %d, %v; want %d, true", n, pl, ok, len(plain))
			}
		}
		back, was, err := EntropyExpand(coded)
		if err != nil {
			t.Fatalf("n=%d: expand: %v", n, err)
		}
		if was != IsEntropy(coded) {
			t.Fatalf("n=%d: wasEntropy mismatch", n)
		}
		if !bytes.Equal(back, plain) {
			t.Fatalf("n=%d: entropy round-trip not byte-identical (%d vs %d bytes)", n, len(back), len(plain))
		}
		// Decode must accept both forms and agree.
		var a, b entropyPayload
		if err := Decode(plain, &a); err != nil {
			t.Fatal(err)
		}
		if err := Decode(coded, &b); err != nil {
			t.Fatalf("n=%d: decode entropy frame: %v", n, err)
		}
	}
}

func TestEntropyCompressDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := makeEntropyPayload(rng, 512)
	plain, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	c1 := EntropyCompress(plain)
	c2 := EntropyCompress(plain)
	if !bytes.Equal(c1, c2) {
		t.Fatal("EntropyCompress is not deterministic")
	}
}

func TestEntropyExpandRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plain, err := Encode(makeEntropyPayload(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	coded := EntropyCompress(plain)
	if !IsEntropy(coded) {
		t.Skip("frame did not compress")
	}
	// Truncations must never panic and never silently corrupt: either
	// the expand errors, or (for redundant trailing pad bytes of the
	// range-coder flush) it still reproduces the original exactly.
	for _, cut := range []int{2, 3, 5, len(coded) / 2, len(coded) - 1} {
		back, was, err := EntropyExpand(coded[:cut])
		if was && err == nil && !bytes.Equal(back, plain) {
			t.Fatalf("truncation at %d decoded without error to different bytes", cut)
		}
	}
	// Corrupt inner length: must error (checksum or structure).
	bad := append([]byte(nil), coded...)
	bad[2] ^= 0x7F
	if back, _, err := EntropyExpand(bad); err == nil && !bytes.Equal(back, plain) {
		t.Fatal("corrupt inner length decoded to different bytes without error")
	}
	// Flip bytes through the stream: silent wrong output is the
	// failure mode the checksum exists to prevent. (A flip in unread
	// range-coder padding may legitimately still decode to the
	// original.)
	for i := 2; i < len(coded); i += 5 {
		bad := append([]byte(nil), coded...)
		bad[i] ^= 0xA5
		back, _, err := EntropyExpand(bad)
		if err == nil && !bytes.Equal(back, plain) {
			t.Fatalf("byte flip at %d decoded to different bytes without error", i)
		}
	}
}

func BenchmarkEntropyCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	plain, err := Encode(makeEntropyPayload(rng, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EntropyCompress(plain)
	}
}

func BenchmarkEntropyExpand(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	plain, err := Encode(makeEntropyPayload(rng, 4096))
	if err != nil {
		b.Fatal(err)
	}
	coded := EntropyCompress(plain)
	if !IsEntropy(coded) {
		b.Skip("frame did not compress")
	}
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EntropyExpand(coded); err != nil {
			b.Fatal(err)
		}
	}
}
