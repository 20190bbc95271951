package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the enclosing span (-1 for a root); spans of one workload slice share
// the slice's root, which is how a trace reader groups them.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Segment int    `json:"segment"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass runs the same code without the appends.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int32 // stack of open span ids
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string, segment int) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Segment: segment,
		StartNs: since(r.origin).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = since(r.origin).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// leaf records an already-timed call (the benchmark times every operation
// anyway for its percentiles) as a closed span under the innermost open one.
func (r *recorder) leaf(name string, segment int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	s := start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, span{ID: int32(len(r.spans)), Parent: parent, Name: name,
		Segment: segment, StartNs: s, EndNs: s + d.Nanoseconds()})
}

// spanSummary aggregates the spans of one name: how many, their total
// duration, and their self time — total minus what their children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize computes per-name totals and self times, sorted by name.
func (r *recorder) summarize() []spanSummary {
	if r == nil {
		return nil
	}
	childNs := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*spanSummary{}
	for i, s := range r.spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
		}
		d := s.EndNs - s.StartNs
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-childNs[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, name := range sortedKeys(byName) {
		out = append(out, *byName[name])
	}
	return out
}

// total returns the summed duration in milliseconds and the count of the
// spans with the given name.
func (r *recorder) total(name string) (ms float64, n int) {
	if r == nil {
		return 0, 0
	}
	for _, s := range r.spans {
		if s.Name == name {
			ms += float64(s.EndNs-s.StartNs) / 1e6
			n++
		}
	}
	return ms, n
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Summary  []spanSummary `json:"summary"`
	Spans    []span        `json:"spans"`
}

// write stores the spans and their summary as trace-<workload>.json in dir.
func (r *recorder) write(dir string, seed int64) error {
	b, err := json.Marshal(traceFile{Workload: r.workload, Seed: seed, Summary: r.summarize(), Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+r.workload+".json"), b, 0o644)
}
