package main

// In-memory spans, recorded only from the benchmark's own files around
// calls into the program's public functions and /metrics scrapes, and
// written as JSONL when the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Spans of one request share trace_id;
// parent names the span that caused this one.
type span struct {
	TraceID  string `json:"trace_id"`
	Span     string `json:"span"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// runs pay one nil check per span.
type tracer struct {
	base     time.Time // span times are nanoseconds since base
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{base: time.Now(), workload: workload}
}

// add records one span.
func (t *tracer) add(traceID, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{TraceID: traceID, Span: name, Parent: parent,
		StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds(), Workload: t.workload}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// time runs fn inside a span.
func (t *tracer) time(traceID, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(traceID, name, parent, start, end)
	return end.Sub(start)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
