package operator

import (
	"fmt"

	"sspd/internal/stream"
)

// AggFunc enumerates the supported windowed aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the lowercase function name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "unknown"
	}
}

// Aggregate computes a windowed aggregate of one numeric field, grouped
// by an optional key field. For every input tuple it emits the updated
// aggregate value of the input's group — the eager re-evaluation model
// common to continuous queries over sliding windows. Every function is
// maintained incrementally: count, sum and avg subtract on evict, min
// and max keep a monotonic deque per group (tail.go), so the cost of a
// tuple does not depend on the window size.
//
// Min and max ignore NaN while the group holds a number; a group
// holding only NaN yields NaN.
//
// Output schema: (group:string, value:float) on a stream named after the
// operator. When no group field is set, group is "".
type Aggregate struct {
	base
	in       *stream.Schema // the layout of snapshot rows
	fn       AggFunc
	valueIdx int
	groupIdx int // -1 when ungrouped
	// sign turns the group's maxDeque into the function's extremum: +1
	// for max, -1 for min (the minimum is minus the maximum of the
	// negated values, bit for bit), 0 when fn keeps no deque.
	sign   float64
	win    *stream.Window[aggSlot]
	groups map[string]*aggState
	free   []*aggState // states of groups that left the window, for reuse
	// next and oldest are the insertion ordinals of the next tuple to
	// enter the window and of the oldest one in it.
	next, oldest uint64
	scratch      []aggSlot
	staged       []stream.Value
}

// aggSlot is what the window keeps of a row: its group's state and the
// value it added there.
type aggSlot struct {
	st *aggState
	v  float64
}

type aggState struct {
	count int64
	sum   float64
	ext   maxDeque
	// group is the group field as the group's first row held it, which
	// a snapshot row writes back; name is its string form, the group's
	// key in groups and in the results.
	group stream.Value
	name  string
}

// NewAggregate builds a windowed aggregate. groupField may be empty for a
// global aggregate. valueField is ignored for AggCount (pass any field).
func NewAggregate(name string, in *stream.Schema, fn AggFunc, valueField, groupField string,
	spec stream.WindowSpec, cost float64) (*Aggregate, error) {
	if in == nil {
		return nil, fmt.Errorf("operator %s: nil input schema", name)
	}
	vi := 0
	if fn != AggCount {
		i, ok := in.FieldIndex(valueField)
		if !ok {
			return nil, fmt.Errorf("operator %s: schema %s has no field %q", name, in.Name(), valueField)
		}
		if in.Field(i).Type == stream.KindString {
			return nil, fmt.Errorf("operator %s: cannot aggregate string field %q", name, valueField)
		}
		vi = i
	}
	gi := -1
	if groupField != "" {
		i, ok := in.FieldIndex(groupField)
		if !ok {
			return nil, fmt.Errorf("operator %s: schema %s has no group field %q", name, in.Name(), groupField)
		}
		gi = i
	}
	out, err := stream.NewSchema(name,
		stream.Field{Name: "group", Type: stream.KindString},
		stream.Field{Name: "value", Type: stream.KindFloat},
	)
	if err != nil {
		return nil, err
	}
	a := &Aggregate{
		base:     newBase(name, cost, out),
		in:       in,
		fn:       fn,
		valueIdx: vi,
		groupIdx: gi,
		win:      stream.NewWindow[aggSlot](spec),
		groups:   make(map[string]*aggState),
	}
	switch fn {
	case AggMax:
		a.sign = 1
	case AggMin:
		a.sign = -1
	}
	return a, nil
}

// Process implements Operator: the one-row form of ProcessBatch.
func (a *Aggregate) Process(port int, t stream.Tuple) []stream.Tuple {
	if port != 0 {
		panic(badPort(a.name, port, 1))
	}
	return a.ProcessBatch([]stream.Tuple{t}, nil)
}

// ProcessBatch consumes rows in order and appends each row's result —
// the updated aggregate of its group — to dst, which it returns. The
// results' Values share one slab allocated by this call.
func (a *Aggregate) ProcessBatch(rows, dst []stream.Tuple) []stream.Tuple {
	base := len(dst)
	a.staged = a.staged[:0]
	for i := range rows {
		st := a.insert(&rows[i])
		val, ok := a.valueOf(st)
		if !ok {
			continue
		}
		dst = append(dst, stream.Tuple{Stream: a.name, Seq: rows[i].Seq, Ts: rows[i].Ts})
		a.staged = append(a.staged, stream.String(st.name), stream.Float(val))
	}
	sealValues(dst[base:], a.staged, 2)
	a.stats.RecordBatch(len(rows), len(dst)-base)
	return dst
}

// insert takes the rows t pushes out of the window out of their groups,
// then adds t to its group and the window (evictions first: sums round
// differently the other way round, and a group the evictions empty
// starts again from zero). It returns t's group state.
func (a *Aggregate) insert(t *stream.Tuple) *aggState {
	ts := t.Ts.UnixNano()
	a.scratch = a.win.Evict(ts, a.scratch[:0])
	for _, s := range a.scratch {
		a.remove(s)
	}
	var group stream.Value
	name := ""
	if a.groupIdx >= 0 {
		group = t.Value(a.groupIdx)
		name = group.String()
	}
	st := a.groups[name]
	if st == nil {
		st = reuse(&a.free)
		st.group, st.name = group, name
		a.groups[name] = st
	}
	v := t.Value(a.valueIdx).AsFloat()
	st.count++
	st.sum += v
	if a.sign != 0 {
		st.ext.push(a.next, a.sign*v)
	}
	a.win.Add(ts, aggSlot{st, v})
	a.next++
	return st
}

// remove takes the window's oldest row out of its group, and a group
// left with no row out of the map.
func (a *Aggregate) remove(s aggSlot) {
	st := s.st
	st.count--
	st.sum -= s.v
	st.ext.evict(a.oldest)
	a.oldest++
	if st.count == 0 {
		delete(a.groups, st.name)
		*st = aggState{ext: maxDeque{buf: st.ext.buf}}
		a.free = append(a.free, st)
	}
}

// reset empties the window and every group, for RestoreState's replay.
func (a *Aggregate) reset() {
	a.win.Clear()
	clear(a.groups)
	a.next, a.oldest = 0, 0
}

// valueOf computes the current aggregate of a group that holds at least
// one tuple.
func (a *Aggregate) valueOf(st *aggState) (float64, bool) {
	switch a.fn {
	case AggCount:
		return float64(st.count), true
	case AggSum:
		return st.sum, true
	case AggAvg:
		return st.sum / float64(st.count), true
	case AggMin, AggMax:
		return a.sign * st.ext.max(), true
	default:
		return 0, false
	}
}
