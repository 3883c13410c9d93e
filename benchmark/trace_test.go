package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10,50) once, not twice.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "a", Start: 30, End: 50},
		// A disjoint child.
		{ID: 3, Parent: 0, Name: "b", Start: 60, End: 70},
		// A child that runs past its parent is clipped to it.
		{ID: 4, Parent: 0, Name: "b", Start: 90, End: 130},
		// A grandchild takes from its own parent only.
		{ID: 5, Parent: 1, Name: "c", Start: 15, End: 25},
		// An event has no duration and takes nothing.
		{ID: 6, Parent: 3, Name: "result", Start: 65, End: 65},
	}
	self := selfTimes(spans)
	want := map[int32]int64{0: 100 - 40 - 10 - 10, 1: 30 - 10, 2: 20, 3: 10, 4: 40, 5: 10, 6: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	dur, selfNs, n := sumByName(spans, self, "a")
	if dur != 50 || selfNs != 40 || n != 2 {
		t.Errorf("sumByName(a) = %d, %d, %d; want 50, 40, 2", dur, selfNs, n)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id := none.add("x", -1, time.Now(), time.Now()); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.close(none.open("x", -1, time.Now()), time.Now())

	r := newRecorder(4)
	t0 := r.epoch
	root := r.open("phase.sat", -1, t0)
	child := r.add("core.publish", root, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	r.close(root, t0.Add(10*time.Millisecond))
	if root != 0 || child != 1 {
		t.Fatalf("span IDs %d, %d; want 0, 1", root, child)
	}
	if got := selfTimes(r.spans)[root]; got != (8 * time.Millisecond).Nanoseconds() {
		t.Errorf("phase self time %d ns, want 8 ms", got)
	}

	path := filepath.Join(t.TempDir(), "out", "w.trace.json")
	if err := r.write(path, "w", map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Workload string
		Env      map[string]any
		Spans    []span
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if back.Workload != "w" || len(back.Spans) != 2 || back.Spans[1].Parent != 0 || back.Spans[1].Name != "core.publish" {
		t.Errorf("trace file round trip: %+v", back)
	}
}
