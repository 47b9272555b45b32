package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer of
// the system. Spans stay in memory and are written once, at the end of the
// run, as Chrome trace-event JSON. A nil *tracer records nothing, so the
// untraced path pays only a nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

// span is one timed call: its own id, the id of the span that caused it
// (0 for a root), and the request it belongs to (a daemon job id, a batch
// job index or a probe name) so every span of one request can be grouped.
type span struct {
	ID, Parent int64
	Req        string
	Name       string
	Start, End time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it. Spans of one
// request are linked through parent ids.
func (t *tracer) begin(name, req string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name, req string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return t.next
}

// traceEvent is one Chrome trace-event "complete" event. ts and dur are in
// microseconds; args carry the span's own id, its parent and its end.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  string         `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

// write stores the spans as {"traceEvents": [...]} under dir and returns
// the file path.
func (t *tracer) write(dir, file string) (string, error) {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed: the call failed before its end mark
		}
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.Req, ID: s.Req,
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "start_us": us(s.Start), "end_us": us(s.End)},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
