package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's
// side of the layer's exported API.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`   // "layer.Call"
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
	// Weight is how many calls of the real run this replayed call
	// stands for (a sampled replay runs 2 of a cluster's devices).
	Weight float64 `json:"weight"`
}

// Tracer holds spans in memory until WriteJSONL. A nil *Tracer records
// nothing, so the timed runs and the traced pass share one code path.
type Tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []Span
}

// NewTracer starts an empty trace for one workload.
func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// Begin opens a span under parent (-1 for a root) and returns its id.
func (t *Tracer) Begin(parent int, name string, weight float64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: now, EndNS: now, Weight: weight})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// Do runs fn inside a span.
func (t *Tracer) Do(parent int, name string, weight float64, fn func() error) error {
	id := t.Begin(parent, name, weight)
	err := fn()
	t.End(id)
	return err
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line to dir/name and returns the path.
func (t *Tracer) WriteJSONL(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}

// SelfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children. Overlapping
// siblings are counted once (the union of their intervals), and a child
// is clipped to its parent's interval.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		var covered int64
		cursor := s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// SelfRow is one line of the self-time table: every span of one name.
type SelfRow struct {
	Name   string
	Calls  int
	SelfNS float64 // Σ self time × weight
}

// SelfTable reduces spans to per-name weighted self time, largest first.
func SelfTable(spans []Span) []SelfRow {
	self := SelfTimes(spans)
	byName := map[string]*SelfRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &SelfRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Calls++
		r.SelfNS += float64(self[i]) * s.Weight
	}
	rows := make([]SelfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfNS != rows[b].SelfNS {
			return rows[a].SelfNS > rows[b].SelfNS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}
