package chaos

// Edge-side statistical detection of Byzantine uploads. The anomaly
// score is the machinery the edge already trusts for clustering:
// internal/wasserstein's 1-D optimal-transport distance. Each device's
// uploaded importance values (downsampled to a fixed budget) are
// compared against the pooled values of every other device in the
// round; a device whose distribution sits far outside the cluster's —
// past a robust median + OutlierK·MAD threshold — is flagged, and
// repeat offenders cross the strike limit into eviction.

import (
	"sort"

	"acme/internal/wasserstein"
)

// Detector scores one cluster's uploads round by round and tracks
// repeat offenders. It is not safe for concurrent use; each edge owns
// one.
type Detector struct {
	strikes map[int]int
	evicted map[int]bool
	// prev keeps each device's previous-round sample, the reference the
	// self-distance is measured against.
	prev map[int][]float64
}

const (
	// StrikeLimit is how many flagged rounds evict a device.
	StrikeLimit = 2
	// OutlierK is the MAD multiplier in the outlier threshold
	// median·(1+OutlierMargin) + OutlierK·MAD.
	OutlierK = 4
	// OutlierMargin is the relative slack on the median, guarding
	// against a near-zero MAD when honest uploads are nearly identical.
	// It is wide because with two of six devices lying, the liars
	// contaminate every honest device's pooled comparison set, which
	// inflates honest scores: at 1.0 the false-positive rate stays at
	// the floor while inflate and fabricate scores still clear the cut
	// by a wide multiple.
	OutlierMargin = 1.0
	// sampleValues bounds the per-device sample the distance runs on.
	sampleValues = 512
	// replayFrac is the replay cut on the cross-round self-distance: a
	// device whose upload sits within replayFrac of the cluster's median
	// self-drift from its own previous upload is flagged as a replay
	// (honest training keeps drifting; a re-sent upload is *too* similar
	// — its distance to itself is exactly zero).
	replayFrac = 0.1
)

// Verdict is one round's detection outcome.
type Verdict struct {
	// Scores is each inspected device's anomaly score: the Wasserstein
	// distance between its upload values and the pooled values of the
	// round's other devices.
	Scores map[int]float64
	// Threshold is the robust outlier cut applied to Scores.
	Threshold float64
	// SelfScores is each device's cross-round self-distance: the
	// Wasserstein distance between this round's upload and the same
	// device's previous one. Absent for devices seen for the first
	// time.
	SelfScores map[int]float64
	// SelfThreshold is the replay cut applied to SelfScores: uploads at
	// or below it are too static to be honest training.
	SelfThreshold float64
	// Suspects lists the devices flagged this round (distribution
	// outliers and replay suspects merged), ascending.
	Suspects []int
	// ReplaySuspects lists the subset of Suspects flagged by the
	// self-distance replay screen, ascending.
	ReplaySuspects []int
	// Evicted lists the devices whose strike count crossed the limit
	// this round, ascending. Each device is reported at most once.
	Evicted []int
}

// Downsample flattens layers into at most max values with a
// deterministic stride, so the distance cost is bounded by the sample
// budget, not the model size.
func Downsample(layers [][]float64, max int) []float64 {
	total := 0
	for _, row := range layers {
		total += len(row)
	}
	if total == 0 {
		return nil
	}
	stride := 1
	if total > max {
		stride = (total + max - 1) / max
	}
	out := make([]float64, 0, (total+stride-1)/stride)
	i := 0
	for _, row := range layers {
		for _, v := range row {
			if i%stride == 0 {
				out = append(out, v)
			}
			i++
		}
	}
	return out
}

// Sample prepares one device's upload for Inspect: flatten and
// downsample to the detector's value budget.
func (d *Detector) Sample(layers [][]float64) []float64 {
	return Downsample(layers, sampleValues)
}

// median of xs, which it sorts in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rememberSamples rotates this round's samples into the self-distance
// reference book. Callers hold no lock; the detector is single-owner.
func (d *Detector) rememberSamples(samples map[int][]float64) {
	if d.prev == nil {
		d.prev = make(map[int][]float64, len(samples))
	}
	for id, s := range samples {
		d.prev[id] = append([]float64(nil), s...)
	}
}

// Inspect scores one round's uploads (device ID → sampled values) and
// updates the strike book. Rounds with fewer than three devices are
// not scored: there is no distribution to be an outlier of.
func (d *Detector) Inspect(samples map[int][]float64) Verdict {
	v := Verdict{Scores: make(map[int]float64, len(samples))}
	if len(samples) < 3 {
		d.rememberSamples(samples)
		return v
	}
	ids := make([]int, 0, len(samples))
	total := 0
	for id, s := range samples {
		ids = append(ids, id)
		total += len(s)
	}
	sort.Ints(ids)
	// Each device's score: distance between its sample and the pooled
	// sample of everyone else this round.
	pooled := make([]float64, 0, total)
	for _, id := range ids {
		pooled = pooled[:0]
		for _, other := range ids {
			if other != id {
				pooled = append(pooled, samples[other]...)
			}
		}
		v.Scores[id] = wasserstein.Distance1D(samples[id], pooled, 1)
	}
	scores := make([]float64, 0, len(ids))
	for _, id := range ids {
		scores = append(scores, v.Scores[id])
	}
	m := median(scores)
	dev := make([]float64, len(scores))
	for i, s := range scores {
		dev[i] = s - m
		if dev[i] < 0 {
			dev[i] = -dev[i]
		}
	}
	mad := median(dev)
	v.Threshold = m*(1+OutlierMargin) + OutlierK*mad
	flagged := make(map[int]bool)
	for _, id := range ids {
		if v.Scores[id] > v.Threshold {
			flagged[id] = true
		}
	}

	// Replay screen: a re-sent upload has an honest *distribution* (the
	// pooled-distance score above is blind to it) but a degenerate
	// temporal signature — its distance to the device's own previous
	// upload is exactly zero, while honest training keeps drifting. Cut
	// at a small fraction of the cluster's median self-drift, so the
	// screen self-calibrates to however fast this cluster converges and
	// stays silent when the whole cluster has genuinely stalled
	// (median ≈ 0).
	v.SelfScores = make(map[int]float64, len(ids))
	selfs := make([]float64, 0, len(ids))
	for _, id := range ids {
		ref, ok := d.prev[id]
		if !ok {
			continue
		}
		sd := wasserstein.Distance1D(samples[id], ref, 1)
		v.SelfScores[id] = sd
		selfs = append(selfs, sd)
	}
	if len(selfs) >= 3 {
		if sm := median(selfs); sm > 0 {
			v.SelfThreshold = replayFrac * sm
			for _, id := range ids {
				sd, ok := v.SelfScores[id]
				if ok && sd <= v.SelfThreshold && !flagged[id] {
					flagged[id] = true
					v.ReplaySuspects = append(v.ReplaySuspects, id)
				}
			}
		}
	}
	d.rememberSamples(samples)

	if d.strikes == nil {
		d.strikes = make(map[int]int)
		d.evicted = make(map[int]bool)
	}
	for _, id := range ids {
		if !flagged[id] {
			continue
		}
		v.Suspects = append(v.Suspects, id)
		d.strikes[id]++
		if d.strikes[id] >= StrikeLimit && !d.evicted[id] {
			d.evicted[id] = true
			v.Evicted = append(v.Evicted, id)
		}
	}
	return v
}

// State is the detector's serializable cross-round memory: the strike
// book, the evicted set, and each device's previous-round sample —
// everything a restored edge needs to keep judging a session where it
// left off. Maps travel as sorted slices so the encoded form is
// deterministic.
type State struct {
	Strikes []StrikeEntry
	Evicted []int
	Prev    []SampleEntry
}

// StrikeEntry is one device's accumulated flag count.
type StrikeEntry struct {
	ID int
	N  int
}

// SampleEntry is one device's previous-round sample.
type SampleEntry struct {
	ID     int
	Values []float64
}

// State exports the detector's cross-round memory.
func (d *Detector) State() State {
	var st State
	ids := make([]int, 0, len(d.strikes))
	for id := range d.strikes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st.Strikes = append(st.Strikes, StrikeEntry{ID: id, N: d.strikes[id]})
	}
	for id, ev := range d.evicted {
		if ev {
			st.Evicted = append(st.Evicted, id)
		}
	}
	sort.Ints(st.Evicted)
	ids = ids[:0]
	for id := range d.prev {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st.Prev = append(st.Prev, SampleEntry{ID: id, Values: append([]float64(nil), d.prev[id]...)})
	}
	return st
}

// Restore replaces the detector's cross-round memory with st.
func (d *Detector) Restore(st State) {
	d.strikes = make(map[int]int, len(st.Strikes))
	for _, e := range st.Strikes {
		d.strikes[e.ID] = e.N
	}
	d.evicted = make(map[int]bool, len(st.Evicted))
	for _, id := range st.Evicted {
		d.evicted[id] = true
	}
	d.prev = make(map[int][]float64, len(st.Prev))
	for _, e := range st.Prev {
		d.prev[e.ID] = append([]float64(nil), e.Values...)
	}
}
