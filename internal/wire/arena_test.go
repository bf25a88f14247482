package wire

import (
	"testing"
)

// f64Row is a record holding one []float64; its frame is the bare
// packed slice.
type f64Row struct{ v []float64 }

func (r *f64Row) WireFields(f *Fields) { f.F64s(&r.v) }

// TestAliasInputCopiesFloat64s: under Arena.AliasInput only float32
// slices may alias the frame. A []float64 decoded from a frame at every
// byte offset 0–7, so at least one of them leaves the payload aligned,
// keeps its values when the frame is overwritten afterwards.
func TestAliasInputCopiesFloat64s(t *testing.T) {
	want := []float64{1.5, -2.25, 3e10}
	frame, err := Encode(&f64Row{want})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 8; off++ {
		buf := make([]byte, off+len(frame))
		copy(buf[off:], frame)
		arena := &Arena{AliasInput: true}
		var row f64Row
		if err := DecodeArena(buf[off:], &row, arena); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		for i, v := range want {
			if row.v[i] != v {
				t.Fatalf("offset %d: value %d reads %v after the frame was overwritten, want %v", off, i, row.v[i], v)
			}
		}
	}
}

// TestArenaKeepsItsHighWaterBlock: a cycle of carves bigger than one
// arena block, layers longer than a block among them, allocates only
// until the arena has seen it once; after that the arena keeps one
// block of that size and every cycle carves from it. A smaller cycle
// keeps the block, a bigger one leads to a block of its size from the
// cycle after it on, Reset itself never allocates, and no two slices
// carved in one cycle overlap.
func TestArenaKeepsItsHighWaterBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under -race")
	}
	sizes := []int{arenaBlock + 1, 17, 3 * arenaBlock, arenaBlock, 2}
	var a Arena
	cycle := func(sizes []int) [][]float32 {
		a.Reset()
		out := make([][]float32, len(sizes))
		for i, n := range sizes {
			out[i] = a.carveF32(n)
			for j := range out[i] {
				out[i][j] = float32(i)
			}
		}
		return out
	}
	check := func(got [][]float32) {
		t.Helper()
		for i, s := range got {
			for j, v := range s {
				if v != float32(i) {
					t.Fatalf("slice %d element %d reads %v: carves overlap", i, j, v)
				}
			}
		}
	}
	check(cycle(sizes))
	var got [][]float32
	if n := testing.AllocsPerRun(20, func() { got = cycle(sizes) }); n > 1 {
		t.Errorf("a repeated cycle allocates %.0f times, want 1 (the slice list)", n)
	}
	check(got)
	need := 0
	for _, n := range sizes {
		need += n
	}
	if c := cap(a.f32.buf); c != need {
		t.Errorf("block holds %d values, want the cycle's %d", c, need)
	}
	check(cycle(sizes[:2]))
	a.Reset()
	if c := cap(a.f32.buf); c != need {
		t.Errorf("a smaller cycle left a block of %d values, want %d", c, need)
	}
	bigger := append(sizes, 5*arenaBlock)
	check(cycle(bigger))
	if n := testing.AllocsPerRun(20, func() { got = cycle(bigger) }); n > 1 {
		t.Errorf("the bigger cycle, repeated, allocates %.0f times, want 1", n)
	}
	check(got)
	if c := cap(a.f32.buf); c != need+5*arenaBlock {
		t.Errorf("a bigger cycle left a block of %d values, want %d", c, need+5*arenaBlock)
	}
	// A decode into a target that needs no carve (a reused one) costs
	// the arena nothing, Reset included.
	if n := testing.AllocsPerRun(20, a.Reset); n != 0 {
		t.Errorf("Reset allocates %.0f times, want 0", n)
	}
}
