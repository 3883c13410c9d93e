package stream

import (
	"testing"
	"testing/quick"
	"time"
)

func ts(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func intTuple(seq uint64, sec int64) Tuple {
	return NewTuple("s", seq, ts(sec), Int(int64(seq)))
}

func windowSeqs(w *Window[Tuple]) []uint64 {
	var out []uint64
	w.Each(func(_ int64, t Tuple) bool {
		out = append(out, t.Seq)
		return true
	})
	return out
}

func TestCountWindowEviction(t *testing.T) {
	w := NewWindow[Tuple](CountWindow(3))
	for i := uint64(1); i <= 5; i++ {
		evicted := push(w, intTuple(i, int64(i)))
		if i <= 3 && evicted != 0 {
			t.Errorf("push %d evicted %d, want 0", i, evicted)
		}
		if i > 3 && evicted != 1 {
			t.Errorf("push %d evicted %d, want 1", i, evicted)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d, want 3", w.Len())
	}
	got := windowSeqs(w)
	want := []uint64{3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
}

func TestTimeWindowEviction(t *testing.T) {
	w := NewWindow[Tuple](TimeWindow(10 * time.Second))
	push(w, intTuple(1, 100))
	push(w, intTuple(2, 105))
	push(w, intTuple(3, 109))
	if w.Len() != 3 {
		t.Fatalf("len = %d, want 3", w.Len())
	}
	// 115-10=105 cutoff: tuple at 100 evicted, 105 retained (closed window).
	evicted := push(w, intTuple(4, 115))
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	got := windowSeqs(w)
	if len(got) != 3 || got[0] != 2 {
		t.Fatalf("contents = %v, want [2 3 4]", got)
	}
}

func TestWindowOldestNewest(t *testing.T) {
	w := NewWindow[Tuple](CountWindow(10))
	if _, ok := w.Oldest(); ok {
		t.Error("empty window has Oldest")
	}
	if _, ok := w.Newest(); ok {
		t.Error("empty window has Newest")
	}
	push(w, intTuple(1, 1))
	push(w, intTuple(2, 2))
	if o, _ := w.Oldest(); o.Seq != 1 {
		t.Errorf("oldest = %d", o.Seq)
	}
	if n, _ := w.Newest(); n.Seq != 2 {
		t.Errorf("newest = %d", n.Seq)
	}
}

func TestWindowGrowth(t *testing.T) {
	// Time windows grow beyond the initial capacity.
	w := NewWindow[Tuple](TimeWindow(time.Hour))
	for i := uint64(0); i < 100; i++ {
		push(w, intTuple(i, int64(i)))
	}
	if w.Len() != 100 {
		t.Fatalf("len = %d, want 100", w.Len())
	}
	got := windowSeqs(w)
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("order broken at %d: %v", i, got[:i+1])
		}
	}
}

func TestWindowGrowthAfterWraparound(t *testing.T) {
	// Exercise ring wraparound: grow after head has advanced.
	w := NewWindow[Tuple](CountWindow(4))
	for i := uint64(0); i < 6; i++ { // head advances by 2
		push(w, intTuple(i, int64(i)))
	}
	// Switch behaviourally by pushing more within capacity; internal
	// buffer must preserve order across the wrap.
	got := windowSeqs(w)
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
}

func TestWindowEachEarlyStop(t *testing.T) {
	w := NewWindow[Tuple](CountWindow(5))
	for i := uint64(0); i < 5; i++ {
		push(w, intTuple(i, int64(i)))
	}
	seen := 0
	w.Each(func(int64, Tuple) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("early stop saw %d, want 2", seen)
	}
}

func TestWindowClear(t *testing.T) {
	w := NewWindow[Tuple](CountWindow(5))
	push(w, intTuple(1, 1))
	w.Clear()
	if w.Len() != 0 {
		t.Fatal("Clear did not empty window")
	}
	push(w, intTuple(2, 2))
	if got := windowSeqs(w); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after clear+push: %v", got)
	}
}

func TestWindowSpecAccessors(t *testing.T) {
	w := NewWindow[Tuple](CountWindow(7))
	if w.Spec().Kind != WindowByCount || w.Spec().Count != 7 {
		t.Errorf("spec = %+v", w.Spec())
	}
	tw := TimeWindow(3 * time.Second)
	if tw.Kind != WindowByTime || tw.Duration != 3*time.Second {
		t.Errorf("time spec = %+v", tw)
	}
}

// Property: a count window never exceeds its capacity and always retains
// the most recent tuples in order.
func TestCountWindowProperty(t *testing.T) {
	f := func(n uint8, pushes uint8) bool {
		capN := int(n%16) + 1
		w := NewWindow[Tuple](CountWindow(capN))
		total := int(pushes)
		for i := 0; i < total; i++ {
			push(w, intTuple(uint64(i), int64(i)))
		}
		if w.Len() > capN {
			return false
		}
		want := total - capN
		if want < 0 {
			want = 0
		}
		ok := true
		idx := want
		w.Each(func(_ int64, tu Tuple) bool {
			if tu.Seq != uint64(idx) {
				ok = false
				return false
			}
			idx++
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: time window contents always lie within the duration of the
// newest tuple.
func TestTimeWindowProperty(t *testing.T) {
	f := func(offsets []uint8) bool {
		w := NewWindow[Tuple](TimeWindow(50 * time.Second))
		sec := int64(0)
		for i, off := range offsets {
			sec += int64(off % 20)
			push(w, intTuple(uint64(i), sec))
		}
		newest, ok := w.Newest()
		if !ok {
			return len(offsets) == 0
		}
		cutoff := newest.Ts.Add(-50 * time.Second)
		valid := true
		w.Each(func(_ int64, tu Tuple) bool {
			if tu.Ts.Before(cutoff) {
				valid = false
				return false
			}
			return true
		})
		return valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Spec returns the window's specification.
func (w *Window[T]) Spec() WindowSpec { return w.spec }

// push inserts a tuple, stamped with its own event time, and returns the
// number of tuples evicted.
func push(w *Window[Tuple], t Tuple) int {
	evicted := w.Evict(t.Ts.UnixNano(), nil)
	w.Add(t.Ts.UnixNano(), t)
	return len(evicted)
}

// Oldest returns the oldest slot and whether the window is non-empty.
func (w *Window[T]) Oldest() (T, bool) {
	if w.count == 0 {
		var zero T
		return zero, false
	}
	return w.buf[w.head].v, true
}

// Newest returns the newest slot and whether the window is non-empty.
func (w *Window[T]) Newest() (T, bool) {
	if w.count == 0 {
		var zero T
		return zero, false
	}
	return w.buf[(w.head+w.count-1)&(len(w.buf)-1)].v, true
}
