package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one figure run or one
// request share a Trace id; Parent is the id of the span that caused it (0
// for a root). Times are Unix nanoseconds so spans recorded in a figs-cold
// child merge onto the parent's timeline unchanged.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing and hands out id 0, so call sites need no guards.
type recorder struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on} }

// record stores a finished span and returns its id.
func (r *recorder) record(trace, parent int, name string, start, end time.Time) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// open starts a span whose end is set by the returned function.
func (r *recorder) open(trace, parent int, name string) (id int, end func()) {
	if !r.on {
		return 0, func() {}
	}
	now := time.Now()
	id = r.record(trace, parent, name, now, now)
	return id, func() {
		t := time.Now().UnixNano()
		r.mu.Lock()
		r.spans[id-1].End = t
		r.mu.Unlock()
	}
}

// merge appends spans recorded elsewhere (a figs-cold child), renumbering
// their ids and shifting their trace ids by traceBase.
func (r *recorder) merge(spans []span, traceBase int) {
	if !r.on || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	off := len(r.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		s.Trace += traceBase
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coverage(s.Start, s.End, children[s.ID])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to [start, end].
func coverage(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, start), min(k.End, end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans and their per-name self times as one JSON file.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if !r.on {
		return "", nil
	}
	spans := r.snapshot()
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds() * 1e3
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".json")
	return path, os.WriteFile(path, buf, 0o644)
}
