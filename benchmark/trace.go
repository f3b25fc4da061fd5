package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing here is done from outside the program: spans are recorded by the
// benchmark around its calls into each layer (client-side request phases on
// the end-to-end pass, one span per call batch on the in-process ladder).
// They stay in memory and are written out once, when the run ends.

// span is one timed interval. Parent is the span that caused it (0 for a
// root); Req groups the spans of one request or operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans and counts. A nil *tracer is a valid, disabled
// tracer: every method is a no-op, which is how the untraced pass runs the
// same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent, req int64, name string, at time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(at.Sub(t.t0))})
	return id
}

func (t *tracer) end(id int64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(parent, req int64, name string, from, to time.Time) int64 {
	id := t.begin(parent, req, name, from)
	t.end(id, to)
	return id
}

// request records one client request as a span from its due time to the
// end of the reply, with the phases the client can see as children: queue
// (due → first byte handed to the kernel; zero in a closed loop), write,
// wait (request written → first reply byte: the server's time plus one
// round trip) and read.
func (t *tracer) request(parent int64, name string, due time.Time, tm timing) {
	if t == nil {
		return
	}
	id := t.add(parent, 0, name, due, tm.done)
	t.mu.Lock()
	t.spans[id-1].Req = id
	t.mu.Unlock()
	if tm.sent.After(due) {
		t.add(id, id, "queue", due, tm.sent)
	}
	t.add(id, id, "write", tm.sent, tm.wrote)
	t.add(id, id, "wait", tm.wrote, tm.first)
	t.add(id, id, "read", tm.first, tm.done)
	t.count(name, 1)
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (parallel work) and may stick out of the parent (a clock read on either
// side of a boundary); overlap is counted once and the excess is clipped.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int64][]iv{}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeJSONL writes one line per span (with its self time) and a final
// line holding the counts.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		line := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
