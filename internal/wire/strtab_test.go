package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

type names struct{ List []inner }

func (n *names) WireFields(f *Fields) {
	f.Struct(1)
	Records(f, &n.List)
}

// TestDecodedStringsComeFromTable: once a record's strings have been
// decoded, decoding the record again allocates nothing and hands back
// the same copies; a string past the table's length bound is copied
// every time.
func TestDecodedStringsComeFromTable(t *testing.T) {
	long := strings.Repeat("x", tableMaxLen+1)
	raw, err := Encode(&names{List: []inner{{Name: "table.first"}, {Name: "table.second"}, {Name: long}}})
	if err != nil {
		t.Fatal(err)
	}
	var a, b names
	if err := Decode(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := Decode(raw, &b); err != nil {
		t.Fatal(err)
	}
	for i := range a.List {
		if a.List[i].Name != b.List[i].Name {
			t.Fatalf("record %d decoded as %q, then %q", i, a.List[i].Name, b.List[i].Name)
		}
		shared := unsafe.StringData(a.List[i].Name) == unsafe.StringData(b.List[i].Name)
		if want := i < 2; shared != want {
			t.Errorf("record %d (%d bytes): two decodes share their copy: %v, want %v", i, len(a.List[i].Name), shared, want)
		}
	}
	if raceEnabled {
		return
	}
	short, err := Encode(&names{List: []inner{{Name: "table.first"}, {Name: "table.second"}}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := Decode(short, &b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per decode of seen strings, want 0", allocs)
	}
}

// TestStringTableBound: a full table keeps its entries and copies every
// string it has not seen, which still decodes to its value.
func TestStringTableBound(t *testing.T) {
	tab := stringTable{m: make(map[string]string)}
	first := tab.get([]byte("bound.0"))
	for i := 1; i < tableMaxEntries; i++ {
		tab.get(fmt.Appendf(nil, "bound.%d", i))
	}
	over := fmt.Sprintf("bound.%d", tableMaxEntries)
	got, again := tab.get([]byte(over)), tab.get([]byte(over))
	if got != over || again != over {
		t.Fatalf("the %d-th distinct string decoded as %q and %q, want %q", tableMaxEntries+1, got, again, over)
	}
	if unsafe.StringData(got) == unsafe.StringData(again) {
		t.Error("a full table kept a string past its bound")
	}
	if n := len(tab.m); n != tableMaxEntries {
		t.Errorf("table holds %d strings, want %d", n, tableMaxEntries)
	}
	if s := tab.get([]byte("bound.0")); unsafe.StringData(s) != unsafe.StringData(first) {
		t.Error("a full table lost an entry")
	}
}

// TestDecodeSameFrameConcurrently has eight goroutines decode one frame
// at once, their strings new to the table, so that -race sees the
// table's inserts and lookups and the float copies side by side.
func TestDecodeSameFrameConcurrently(t *testing.T) {
	want := testSample()
	want.C = "concurrent.sample"
	for i := range want.E {
		want.E[i].Name = fmt.Sprintf("concurrent.%d", i)
	}
	raw, err := Encode(&want)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got sample
			if err := Decode(raw, &got); err != nil {
				errs[g] = err
				return
			}
			again, err := Encode(&got)
			if err == nil && string(again) != string(raw) {
				err = fmt.Errorf("decoder %d: re-encoded frame differs", g)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
