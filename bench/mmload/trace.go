package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. The harness records
// spans around its own calls into each layer's exported functions
// (tracing inside the program is a later change); spans of one script
// op share Op, and Parent is the span that was open when this one
// began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is how many calls the span aggregates (a RunRound loop is
	// one msm.rounds span with Count rounds); 1 otherwise.
	Count int32 `json:"count"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// It is used from the script's goroutine only. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// setOp names the script op the following spans belong to.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// begin opens a span under whichever span is currently open.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0)), Count: 1})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) { t.endCount(id, 1) }

// endCount closes a span that aggregated count calls.
func (t *tracer) endCount(id int32, count int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Count = int32(count)
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime is what one span name cost over a run.
type layerTime struct {
	// Spans is how many spans carried the name, Calls the sum of their
	// counts.
	Spans, Calls int
	// TotalNs is the summed duration; SelfNs is TotalNs minus the part
	// of each span its direct children cover.
	TotalNs, SelfNs int64
}

// selfTimes reduces spans to per-name totals. A span's self time is
// its duration minus its direct children's durations: the harness is
// single-threaded, so children never overlap each other.
func selfTimes(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Calls += int(s.Count)
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out
}

// traceFile is the shape of trace.json.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Script   string               `json:"script_sha256"`
	Layers   map[string]layerTime `json:"layers"`
	Spans    []span               `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// sortedNames lists a layer map's keys in order, for stable printing.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
