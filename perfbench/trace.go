package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the traced ladder. Spans of one
// request share Req; a child names its caller in Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // request index in the replayed prefix; -1 for set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`  // response body bytes
	Allocs uint64 `json:"allocs,omitempty"` // heap allocations during the span
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
	Note   string `json:"note,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A recorder that is off
// records nothing and returns id -1, which every other method ignores.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

func (r *recorder) endAt(id int, t time.Time) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = int64(t.Sub(r.t0))
	r.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

func (r *recorder) annotate(id int, f func(*span)) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	f(&r.spans[id])
	r.mu.Unlock()
}

// mem reads the allocation counters when recording; a stopped world is
// part of what tracing costs.
func (r *recorder) mem() (allocs, bytes uint64) {
	if !r.on {
		return 0, 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
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

// selfTimes returns, for each span (indexed by ID), its duration minus the
// part of its interval that its children cover: the union of the child
// intervals clipped to the parent, so overlapping children count once.
func selfTimes(spans []span) []int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}
