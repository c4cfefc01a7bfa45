package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval around a call into a layer, recorded from the
// benchmark's own code. Times are nanoseconds since the tracer started.
// Spans of one job share Job; shard spans carry their shard index (Shard is
// -1 otherwise). An aggregated span stands for many short calls: it covers
// the first call's start to the last call's end, and Busy and Calls hold the
// calls' summed time and number.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing work.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span ID, so a parent can be named before its span
// ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// ns converts a time to the tracer's clock.
func (t *tracer) ns(tm time.Time) int64 { return tm.Sub(t.origin).Nanoseconds() }

// add stores s, giving it a fresh ID unless it already has one.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores a span over [start, end].
func (t *tracer) record(id int64, name string, parent int64, job string, shard int, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Name: name, Job: job, Shard: shard, Start: t.ns(start), End: t.ns(end)})
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
