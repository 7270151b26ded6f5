package main

// In-memory spans of the traced run. Every span is recorded from this
// package, around a call into one layer's exported functions (or, for the
// source-iteration phases, converted from the events the existing
// IterConfig.Tracer already emits); nothing inside the program is
// instrumented. A nil *recorder records nothing, so the untraced run pays
// one nil check per boundary.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is the id of the span that caused this one
// (0 = none); Op identifies the operation (set-up, solve or job) all spans
// of one request share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name, op string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// reserve allocates a span id before the span's children are recorded;
// finish fills in its interval. Children are always added between the two.
func (r *recorder) reserve(name, op string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	return id
}

func (r *recorder) finish(id int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Start = start.Sub(r.epoch).Nanoseconds()
	r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds()
}

// all returns a copy of the recorded spans in id order.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations, in seconds, of every span of a name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// childCover returns how much of its interval the direct children of span
// id cover.
func (r *recorder) childCover(id int) time.Duration {
	var children []span
	for _, s := range r.all() {
		if s.Parent == id {
			children = append(children, s)
		}
	}
	return covered(children)
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes folds spans into one row per name, sorted by name. A span's
// self time is its duration minus the part of its interval its children
// cover. It fails when a child reaches outside its parent — the hierarchy
// would then no longer add up.
func selfTimes(spans []span) ([]layerRow, error) {
	children := make(map[int][]span)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] exceeds its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			rows[s.Name] = row
		}
		row.count++
		row.total += s.dur()
		row.self += s.dur() - covered(children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return time.Duration(total)
}
