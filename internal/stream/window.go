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

// Window is a sliding window over one stream whose slots hold a T — a
// whole Tuple for a join, or only what an operator reads back when a row
// leaves. Each slot keeps its row's event time beside it, in Unix
// nanoseconds: the precision the codec carries, so a decoded tuple and
// one that was never encoded evict alike. A push (Evict, then Add) never
// evicts the row it adds. It is not safe for concurrent use; operators
// own their windows.
type Window[T any] struct {
	spec WindowSpec
	// buf is a ring buffer of the window contents in arrival order; its
	// length is a power of two.
	buf   []slot[T]
	head  int // index of oldest element
	count int
}

type slot[T any] struct {
	ts int64
	v  T
}

// NewWindow returns an empty window with the given spec. A count window
// of up to 1024 rows gets a ring it never outgrows; any other starts at
// 16 slots and doubles on demand, so a large Count does not preallocate.
func NewWindow[T any](spec WindowSpec) *Window[T] {
	n := 16
	if spec.Count > 0 && spec.Count <= 1024 {
		n = 1
		for n < spec.Count {
			n *= 2
		}
	}
	return &Window[T]{spec: spec, buf: make([]slot[T], n)}
}

// Len returns the number of slots currently in the window.
func (w *Window[T]) Len() int { return w.count }

// Evict removes the slots that a row at event time ts pushes out of the
// window and appends them to dst, oldest first, returning dst: a count
// window keeps at most Count-1, a time window none older than ts minus
// the duration. Add then enters the row. The push is split in two so a
// caller takes the leaving slots out of its state before it builds the
// new slot.
func (w *Window[T]) Evict(ts int64, dst []T) []T {
	switch w.spec.Kind {
	case WindowByCount:
		for w.count > 0 && w.count >= w.spec.Count {
			dst = w.evictOldest(dst)
		}
	case WindowByTime:
		cutoff := ts - int64(w.spec.Duration)
		for w.count > 0 && w.buf[w.head].ts < cutoff {
			dst = w.evictOldest(dst)
		}
	}
	return dst
}

// Add enters v, stamped with event time ts, as the newest slot.
func (w *Window[T]) Add(ts int64, v T) {
	if w.count == len(w.buf) {
		w.grow()
	}
	w.buf[(w.head+w.count)&(len(w.buf)-1)] = slot[T]{ts, v}
	w.count++
}

func (w *Window[T]) evictOldest(dst []T) []T {
	dst = append(dst, w.buf[w.head].v)
	w.buf[w.head] = slot[T]{} // release references
	w.head = (w.head + 1) & (len(w.buf) - 1)
	w.count--
	return dst
}

func (w *Window[T]) grow() {
	bigger := make([]slot[T], len(w.buf)*2)
	for i := 0; i < w.count; i++ {
		bigger[i] = w.buf[(w.head+i)&(len(w.buf)-1)]
	}
	w.buf = bigger
	w.head = 0
}

// Each calls fn with every slot's event time and value, oldest to
// newest, stopping early if fn returns false.
func (w *Window[T]) Each(fn func(ts int64, v T) bool) {
	for i := 0; i < w.count; i++ {
		s := &w.buf[(w.head+i)&(len(w.buf)-1)]
		if !fn(s.ts, s.v) {
			return
		}
	}
}

// Clear discards all contents.
func (w *Window[T]) Clear() {
	clear(w.buf)
	w.head = 0
	w.count = 0
}
