package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one trace replay or one fleet session
// share a Session ID; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Events  int64  `json:"events,omitempty"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory for the length of a run. A nil tracer
// records nothing, which is the untraced path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its ID.
func (t *tracer) add(name string, session int64, parent int, start, end time.Time, events int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Session: session, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), Events: events,
	})
	return id
}

// setEnd closes a span opened with add before its children ran.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// timed runs fn as a span and returns its ID.
func (t *tracer) timed(name string, session int64, parent int, events int64, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, session, parent, start, time.Now(), events)
}

// computeSelf fills every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) computeSelf() {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := t.spans[k]
			iv = append(iv, [2]int64{max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.StartNs
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// layer aggregates the self time of the spans of one name.
type layer struct {
	count  int
	selfNs int64
	events int64
	selfs  []float64 // per-span self time, ms
}

// layers groups by name the direct children of the root spans named root.
func (t *tracer) layers(root string) map[string]*layer {
	out := make(map[string]*layer)
	for _, s := range t.spans {
		if s.Parent == 0 || t.spans[s.Parent-1].Name != root {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		l.count++
		l.selfNs += s.SelfNs
		l.events += s.Events
		l.selfs = append(l.selfs, float64(s.SelfNs)/1e6)
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
