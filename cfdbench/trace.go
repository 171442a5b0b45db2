package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The tracer records spans in memory around the calls the benchmark
// makes into each layer and writes them out when the run ends. It lives
// in the benchmark's own code: the program under test is not
// instrumented. A nil *tracer is the untraced mode — every method is a
// no-op, so the timed paths carry one nil check per call site.

// span is one traced call. Parent is the id of the span that caused it
// (0 for a root); spans of one request share their root's id as Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	req := id
	if parent > 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// child records a finished span of known duration inside parent,
// starting at offset from the parent's start: the server-side stages a
// response reports in its X-Stage-* headers.
func (t *tracer) child(parent int, layer, name string, offset, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.Start + offset.Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: p.Req,
		Layer: layer, Name: name, Start: start, End: start + d.Nanoseconds(),
	})
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of its interval its children cover, summed
// per layer.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		out[s.Layer] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(0), int64(0)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCost measures what recording one span costs on this machine, so
// the traced run can state its own overhead: spans recorded times this
// cost, as a share of the run's wall time.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", "x", 0))
	}
	return time.Since(start) / n
}
