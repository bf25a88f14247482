package wire

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type names struct{ List []inner }

func (n *names) WireFields(f *Fields) {
	f.Struct(1)
	Records(f, &n.List)
}

// TestDecodedStringsCopyTheFrame: a decoded string is its own copy of
// the frame's bytes, short or long, so overwriting the frame after the
// decode, as the last release of a leased frame may, leaves every
// string as it was decoded.
func TestDecodedStringsCopyTheFrame(t *testing.T) {
	want := names{List: []inner{{Name: "copy.first"}, {Name: "copy.second"}, {Name: strings.Repeat("x", 100)}}}
	raw, err := Encode(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got names
	if err := Decode(raw, &got); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xa5
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strings changed with their frame: %+v, want %+v", got, want)
	}
}

// TestDecodeSameFrameConcurrently has eight goroutines decode one frame
// at once, so that -race sees their string and float copies of the
// same bytes side by side.
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
