package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Times are microseconds since the tracer was
// created. Ref is the pass, partition or connection the span belongs to, so
// the spans of one unit of work share an identifier.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root
	Name    string  `json:"name"`
	Ref     int     `json:"ref"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run executes the same harness code with the
// recording switched off. Spans are recorded from the benchmark's own
// files, around the calls into each layer; one goroutine records at a time
// (the pass goroutine, or the single shard goroutine while the pass
// goroutine waits for it).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, ref int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, StartUS: t.us(start), EndUS: t.us(end)})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent, ref int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, parent, ref, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndUS = t.us(time.Now())
}

// finish computes self times: a span's duration minus the part its child
// spans cover. Children of one parent do not overlap in this harness, so
// the covered part is the sum of their durations.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].SelfUS = t.spans[i].EndUS - t.spans[i].StartUS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfUS -= s.EndUS - s.StartUS
		}
	}
	for i := range t.spans {
		if t.spans[i].SelfUS < 0 {
			t.spans[i].SelfUS = 0
		}
	}
}

// selfByName sums self time per span name, in microseconds.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.SelfUS
	}
	return out
}

// traceFile is the schema of bench/out/<workload>.trace.json.
type traceFile struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfUS   map[string]float64 `json:"self_us_by_name"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	t.finish()
	data, err := json.Marshal(traceFile{
		Schema: "bench-trace/v1", Workload: workload, Seed: seed,
		SelfUS: t.selfByName(), Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// writeFile writes one newline-terminated file, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
