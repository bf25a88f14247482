package chaos

import (
	"reflect"
	"testing"
)

// drift returns a sample that moved a small honest step away from base.
func drift(base []float64, step float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v + step*float64(i+1)
	}
	return out
}

func TestDetectorFlagsReplay(t *testing.T) {
	d := &Detector{}
	base := []float64{0.1, 0.25, 0.4, 0.55, 0.7}
	// Round 0 seeds everyone's previous sample; nothing to compare yet.
	r0 := map[int][]float64{}
	for id := 0; id < 4; id++ {
		r0[id] = drift(base, 0.01*float64(id+1))
	}
	v := d.Inspect(r0)
	if len(v.ReplaySuspects) != 0 {
		t.Fatalf("first round replay suspects %v, nothing to replay yet", v.ReplaySuspects)
	}
	// Round 1: honest devices drift on; device 0 re-sends its round-0
	// upload byte for byte.
	r1 := map[int][]float64{0: r0[0]}
	for id := 1; id < 4; id++ {
		r1[id] = drift(r0[id], 0.02*float64(id+1))
	}
	v = d.Inspect(r1)
	if len(v.ReplaySuspects) != 1 || v.ReplaySuspects[0] != 0 {
		t.Fatalf("replay suspects %v (self scores %v, cut %v), want [0]",
			v.ReplaySuspects, v.SelfScores, v.SelfThreshold)
	}
	if len(v.Suspects) != 1 || v.Suspects[0] != 0 {
		t.Fatalf("merged suspects %v, want [0]", v.Suspects)
	}
	if v.SelfScores[0] != 0 {
		t.Fatalf("replayed upload self-distance %v, want exactly 0", v.SelfScores[0])
	}
	if d.strikes[0] != 1 {
		t.Fatalf("strikes(0) = %d after one replay", d.strikes[0])
	}
	// Round 2: the same replay again crosses the default strike limit.
	r2 := map[int][]float64{0: r0[0]}
	for id := 1; id < 4; id++ {
		r2[id] = drift(r1[id], 0.02*float64(id+1))
	}
	v = d.Inspect(r2)
	if len(v.Evicted) != 1 || v.Evicted[0] != 0 {
		t.Fatalf("evicted %v after two replay strikes, want [0]", v.Evicted)
	}
}

func TestDetectorReplayScreenGuards(t *testing.T) {
	// A cluster that has genuinely stalled (every self-distance zero)
	// must not be flagged: the median guard keeps the screen silent.
	d := &Detector{}
	same := map[int][]float64{0: {1, 2, 3}, 1: {1.1, 2.1, 3.1}, 2: {0.9, 1.9, 2.9}}
	d.Inspect(same)
	v := d.Inspect(same)
	if len(v.ReplaySuspects) != 0 {
		t.Fatalf("stalled-cluster round flagged %v", v.ReplaySuspects)
	}
}

func TestDetectorStateRoundTrip(t *testing.T) {
	d := &Detector{}
	base := []float64{0.2, 0.4, 0.6, 0.8}
	r0 := map[int][]float64{}
	for id := 0; id < 4; id++ {
		r0[id] = drift(base, 0.01*float64(id+1))
	}
	d.Inspect(r0)
	d.Inspect(map[int][]float64{
		0: r0[0], // replay strike
		1: drift(r0[1], 0.05),
		2: drift(r0[2], 0.06),
		3: drift(r0[3], 0.07),
	})
	st := d.State()
	if len(st.Prev) != 4 || len(st.Strikes) != 1 || st.Strikes[0] != (StrikeEntry{ID: 0, N: 1}) {
		t.Fatalf("state %+v", st)
	}
	// A fresh detector restored from the state must judge the next
	// round identically to the original.
	r2 := map[int][]float64{
		0: r0[0],
		1: drift(r0[1], 0.1),
		2: drift(r0[2], 0.11),
		3: drift(r0[3], 0.12),
	}
	restored := &Detector{}
	restored.Restore(st)
	want := d.Inspect(r2)
	got := restored.Inspect(r2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored verdict %+v vs original %+v", got, want)
	}
	if !reflect.DeepEqual(restored.State(), d.State()) {
		t.Fatalf("post-round state diverged")
	}
}
