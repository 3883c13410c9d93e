package stream

import (
	"time"
)

// WindowKind selects how a sliding window bounds its contents.
type WindowKind uint8

// Window kinds.
const (
	// WindowByCount keeps the most recent N tuples.
	WindowByCount WindowKind = iota
	// WindowByTime keeps tuples whose timestamp is within D of the
	// newest tuple's timestamp.
	WindowByTime
)

// WindowSpec describes a sliding window: either the last Count tuples or
// the last Duration of event time.
type WindowSpec struct {
	Kind     WindowKind
	Count    int
	Duration time.Duration
}

// CountWindow returns a spec for the most recent n tuples.
func CountWindow(n int) WindowSpec { return WindowSpec{Kind: WindowByCount, Count: n} }

// TimeWindow returns a spec for the most recent d of event time.
func TimeWindow(d time.Duration) WindowSpec {
	return WindowSpec{Kind: WindowByTime, Duration: d}
}

// Window is a sliding window over one stream. It is not safe for
// concurrent use; operators own their windows.
type Window struct {
	spec WindowSpec
	// buf is a ring buffer of the window contents in arrival order.
	buf   []Tuple
	head  int // index of oldest element
	count int
}

// NewWindow returns an empty window with the given spec. The buffer
// starts small and grows on demand, so a large Count does not
// preallocate.
func NewWindow(spec WindowSpec) *Window {
	capHint := spec.Count
	if capHint <= 0 || capHint > 1024 {
		capHint = 16
	}
	return &Window{spec: spec, buf: make([]Tuple, capHint)}
}

// Len returns the number of tuples currently in the window.
func (w *Window) Len() int { return w.count }

// PushCollect is Push, but the evicted tuples are appended to dst so
// callers that maintain auxiliary indexes (e.g. join hash tables) can
// unindex them. It returns the extended slice.
func (w *Window) PushCollect(t Tuple, dst []Tuple) []Tuple {
	if dst == nil {
		dst = make([]Tuple, 0, 4)
	}
	_, dst = w.push(t, dst)
	return dst
}

func (w *Window) push(t Tuple, dst []Tuple) (int, []Tuple) {
	w.grow()
	tail := (w.head + w.count) % len(w.buf)
	w.buf[tail] = t
	w.count++

	evicted := 0
	switch w.spec.Kind {
	case WindowByCount:
		for w.count > w.spec.Count && w.count > 0 {
			dst = w.evictOldest(dst)
			evicted++
		}
	case WindowByTime:
		cutoff := t.Ts.Add(-w.spec.Duration)
		for w.count > 0 && w.buf[w.head].Ts.Before(cutoff) {
			dst = w.evictOldest(dst)
			evicted++
		}
	}
	return evicted, dst
}

func (w *Window) evictOldest(dst []Tuple) []Tuple {
	if dst != nil {
		dst = append(dst, w.buf[w.head])
	}
	w.buf[w.head] = Tuple{} // release references
	w.head = (w.head + 1) % len(w.buf)
	w.count--
	return dst
}

func (w *Window) grow() {
	if w.count < len(w.buf) {
		return
	}
	bigger := make([]Tuple, len(w.buf)*2)
	for i := 0; i < w.count; i++ {
		bigger[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	w.buf = bigger
	w.head = 0
}

// Each calls fn for every tuple in the window from oldest to newest,
// stopping early if fn returns false.
func (w *Window) Each(fn func(Tuple) bool) {
	for i := 0; i < w.count; i++ {
		if !fn(w.buf[(w.head+i)%len(w.buf)]) {
			return
		}
	}
}

// Clear discards all contents.
func (w *Window) Clear() {
	for i := range w.buf {
		w.buf[i] = Tuple{}
	}
	w.head = 0
	w.count = 0
}
