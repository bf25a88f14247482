package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100, Weight: 1},
		// Nested: the grandchild is subtracted from the child only.
		{ID: 1, Parent: 0, Name: "child", StartNS: 10, EndNS: 40, Weight: 1},
		{ID: 2, Parent: 1, Name: "grandchild", StartNS: 20, EndNS: 30, Weight: 1},
		// Siblings overlapping on [50,60] cover [45,70] once.
		{ID: 3, Parent: 0, Name: "sib", StartNS: 45, EndNS: 60, Weight: 1},
		{ID: 4, Parent: 0, Name: "sib", StartNS: 50, EndNS: 70, Weight: 2},
		// Zero-length spans take nothing from their parent.
		{ID: 5, Parent: 0, Name: "zero", StartNS: 80, EndNS: 80, Weight: 1},
	}
	want := []int64{100 - 30 - 25, 20, 10, 15, 20, 0}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	rows := SelfTable(spans)
	if rows[0].Name != "sib" || rows[0].Calls != 2 || rows[0].SelfNS != 15+2*20 {
		t.Errorf("top row %+v, want sib with weighted self 55", rows[0])
	}
}

func TestSelfTimesClipsChildToParent(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, StartNS: 10, EndNS: 20},
		{ID: 1, Parent: 0, StartNS: 15, EndNS: 30},
	}
	if got := SelfTimes(spans); got[0] != 5 {
		t.Errorf("parent self %d, want 5", got[0])
	}
}

func TestTracerNilAndJSONL(t *testing.T) {
	var off *Tracer
	id := off.Begin(-1, "x", 1)
	off.End(id)
	if off.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := NewTracer("w")
	root := tr.Begin(-1, "root", 1)
	if err := tr.Do(root, "leaf", 3, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.End(root)
	path, err := tr.WriteJSONL(t.TempDir(), "trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[1].Parent != root || back[1].Name != "leaf" || back[1].Weight != 3 || back[1].Workload != "w" {
		t.Fatalf("round trip %+v", back)
	}
	if back[0].EndNS < back[1].EndNS {
		t.Errorf("root ended at %d before its child at %d", back[0].EndNS, back[1].EndNS)
	}
}
