package wire

import (
	"strings"
	"testing"
)

func TestControlRecordRoundTrip(t *testing.T) {
	records := []ControlRecord{
		{Type: ControlJoin, Node: "device-3"},
		{Type: ControlLeave, Node: "edge-0"},
		{Type: ControlResyncRequest, Node: "device-1", Device: 1},
		{Type: ControlRoundCutoff, Device: 4, Round: 7},
		{Type: ControlRoundCutoff, Device: 2, Round: 3, Done: true},
		{Type: ControlRoundInvite, Device: 5, Round: 2},
		{Type: ControlRoundInvite, Device: 0, Round: 9, Done: true},
		{Type: ControlMemberGone, Device: 6, Round: 4},
		{Type: ControlSessionResume, Node: "edge-0", Round: 5},
	}
	for _, in := range records {
		raw, err := EncodeControl(in)
		if err != nil {
			t.Fatalf("%v: %v", in.Type, err)
		}
		out, err := DecodeControl(raw)
		if err != nil {
			t.Fatalf("%v: %v", in.Type, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
		}
	}
}

func TestControlRecordRejectsUnknownType(t *testing.T) {
	if _, err := EncodeControl(ControlRecord{Type: 0}); err == nil {
		t.Fatal("encoding a zero-typed control record must fail")
	}
	if _, err := EncodeControl(ControlRecord{Type: 99}); err == nil {
		t.Fatal("encoding an unknown control type must fail")
	}
	// A structurally valid record with an out-of-range verb must be
	// rejected by DecodeControl even though Decode itself succeeds.
	raw, err := Encode(ControlRecord{Type: 200, Node: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeControl(raw); err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("unknown verb accepted: %v", err)
	}
	if _, err := DecodeControl([]byte{0xff, 0xff}); err == nil {
		t.Fatal("garbage control payload accepted")
	}
}

func TestControlTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, ct := range []ControlType{ControlJoin, ControlLeave, ControlResyncRequest, ControlRoundCutoff,
		ControlRoundInvite, ControlMemberGone, ControlSessionResume} {
		if !ct.Valid() {
			t.Fatalf("%v not valid", ct)
		}
		s := ct.String()
		if seen[s] {
			t.Fatalf("duplicate control type string %q", s)
		}
		seen[s] = true
	}
	if ControlType(0).Valid() || ControlType(200).Valid() {
		t.Fatal("out-of-range control types must be invalid")
	}
	if ControlType(200).String() == "" {
		t.Fatal("unknown control type must still render")
	}
}
