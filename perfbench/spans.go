package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: a name of the form
// "<layer>.<op>", start/end offsets from the tracer's epoch, the span
// that was open around it (0 for a root) and the request it served (0
// when it served none).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out
// once, at exit. A disabled tracer costs one branch per call and
// records nothing, so the untraced run pays nothing for the plumbing.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// maxSpans bounds the spans one run keeps in memory.
const maxSpans = 1 << 20

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// begin opens a span and returns its id (0 when tracing is off or the
// in-memory budget is spent; end ignores id 0).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is the self and total time of one layer across every
// closed span of that layer.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes folds closed spans into per-layer totals. A span's self
// time is its duration minus the durations of its direct children, so
// nested layers are not counted twice.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := by[layer]
		if lt == nil {
			lt = &layerTime{Layer: layer}
			by[layer] = lt
		}
		d := s.End - s.Start
		lt.Spans++
		lt.Total += float64(d) / 1e6
		lt.Self += float64(d-child[s.ID]) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// write stores every span and the per-layer self times as one JSON
// document under dir. Nothing is written when tracing is off.
func (t *tracer) write(dir, name string) (string, error) {
	if len(t.spans) == 0 {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	layers := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
