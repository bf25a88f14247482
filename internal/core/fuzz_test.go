package core

import (
	"bytes"
	"reflect"
	"testing"

	"acme/internal/wire"
)

// FuzzDecodeRecords drives arbitrary bytes through the decoders of
// every frame kind, plain and into an aliasing arena, each into a fresh
// target and into one reused across inputs, as the edge's steady-state
// fold reuses its scratch value. The invariant is "error, never
// panic": a malformed frame from a byzantine peer or a torn snapshot
// must surface as a clean decode error. A frame that decodes must
// re-encode to a frame that decodes to the same encoding again. The
// seed corpus (testdata/fuzz/FuzzDecodeRecords) holds each golden frame
// (golden_test.go) with a truncated and a corrupted copy.
func FuzzDecodeRecords(f *testing.F) {
	var types []reflect.Type
	for _, c := range goldenFixtures(false) {
		types = append(types, reflect.TypeOf(c.value))
	}
	reused := make([]any, len(types))
	for i, typ := range types {
		reused[i] = reflect.New(typ).Interface()
	}
	arena := &wire.Arena{AliasInput: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, typ := range types {
			for _, a := range []*wire.Arena{nil, arena} {
				for _, v := range []any{reflect.New(typ).Interface(), reused[i]} {
					arena.Reset()
					if err := wire.DecodeArena(data, v, a); err != nil {
						continue
					}
					again, err := wire.Encode(v)
					if err != nil {
						t.Fatalf("%s: decoded value does not re-encode: %v", typ, err)
					}
					back := reflect.New(typ).Interface()
					if err := wire.Decode(again, back); err != nil {
						t.Fatalf("%s: re-encoded frame does not decode: %v", typ, err)
					}
					if third, _ := wire.Encode(back); !bytes.Equal(third, again) {
						t.Fatalf("%s: re-encoded frame decodes to a different encoding", typ)
					}
				}
			}
		}
	})
}
