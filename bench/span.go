package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer (or, for
// scheduling cycles and policy passes, one the controller reported
// through the probe). Parent is the span that caused it, 0 for a
// root. Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Trial    int    `json:"trial"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory; they are
// written out once, when the run ends. Safe for concurrent use (the
// load generator's clients record request spans in parallel).
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	trial    int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// now is the tracer's clock.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, name, layer string) int {
	return t.add(parent, name, layer, t.now(), 0)
}

// add records a span with explicit times (the probe reports a policy
// pass only after it ended).
func (t *tracer) add(parent int, name, layer string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Trial: t.trial, StartNs: start, EndNs: end,
	})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time by ID: its duration minus
// the part of its interval that its child spans cover. Children may
// overlap each other (parallel requests under one phase span) and are
// clipped to the parent, so the self times of a tree always sum to
// its root's duration.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for id, ns := range selfTimes(spans) {
		out[spans[id-1].Layer] += float64(ns) / 1e9
	}
	return out
}
