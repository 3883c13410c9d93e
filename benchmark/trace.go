package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: name, start, end (ns since the
// recorder's epoch) and the span that caused it (-1 for a root). An
// event is a span whose end equals its start.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced repetitions pay one nil check per
// call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent int32, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
	return id
}

// open records a span whose end is set later by close; phases use it so
// the spans recorded inside can name it as their parent.
func (r *recorder) open(name string, parent int32, start time.Time) int32 {
	return r.add(name, parent, start, start)
}

func (r *recorder) close(id int32, end time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curLo, curHi int64
		merging := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !merging || lo > curHi:
				if merging {
					covered += curHi - curLo
				}
				curLo, curHi, merging = lo, hi, true
			case hi > curHi:
				curHi = hi
			}
		}
		if merging {
			covered += curHi - curLo
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// sumByName adds up duration and self time of every span with the name.
func sumByName(spans []span, self map[int32]int64, name string) (dur, selfNs int64, n int) {
	for _, s := range spans {
		if s.Name == name {
			dur += s.End - s.Start
			selfNs += self[s.ID]
			n++
		}
	}
	return dur, selfNs, n
}

// write streams the spans to path as one JSON object:
// {"env": ..., "workload": ..., "spans": [{...}, ...]}.
func (r *recorder) write(path, workload string, env map[string]any) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	head, err := json.Marshal(map[string]any{"workload": workload, "env": env})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// bufio keeps the first write error and Flush returns it.
	w := bufio.NewWriterSize(f, 1<<20)
	w.Write(head[:len(head)-1]) // reopen the object to append the spans
	w.WriteString(`,"spans":[`)
	r.mu.Lock()
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		line, _ := json.Marshal(s) // struct of ints and a string; cannot fail
		w.Write(line)
	}
	r.mu.Unlock()
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
