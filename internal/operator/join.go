package operator

import (
	"fmt"

	"sspd/internal/stream"
)

// WindowJoin is a symmetric windowed equi-join over two streams. Each
// side maintains a sliding window plus a hash index on its join key; an
// arriving tuple probes the opposite window and emits one concatenated
// tuple per match. This is the classic window-join of STREAM-class
// engines, which the paper points to as the operator whose internal state
// ("synopsis") makes operator-level migration across heterogeneous
// engines infeasible — the reason inter-entity cooperation stays at the
// query level.
type WindowJoin struct {
	base
	keyL, keyR int // join-key field index per side
	sides      [2]*joinSide
}

type joinSide struct {
	win *stream.Window[stream.Tuple]
	// index maps join-key string form to the tuples currently in the
	// window holding that key.
	index map[string][]stream.Tuple
	key   int
	// scratch is reused across inserts to collect evicted tuples
	// without allocating.
	scratch []stream.Tuple
}

// NewWindowJoin builds a join of left ⋈ right on left.keyField =
// right.keyField, each side windowed by spec. The output schema is the
// concatenation of both inputs' fields with side prefixes.
func NewWindowJoin(name string, left, right *stream.Schema, leftKey, rightKey string,
	spec stream.WindowSpec, cost float64) (*WindowJoin, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("operator %s: nil input schema", name)
	}
	li, ok := left.FieldIndex(leftKey)
	if !ok {
		return nil, fmt.Errorf("operator %s: left schema %s has no field %q", name, left.Name(), leftKey)
	}
	ri, ok := right.FieldIndex(rightKey)
	if !ok {
		return nil, fmt.Errorf("operator %s: right schema %s has no field %q", name, right.Name(), rightKey)
	}
	if left.Field(li).Type != right.Field(ri).Type {
		return nil, fmt.Errorf("operator %s: join key kinds differ (%v vs %v)",
			name, left.Field(li).Type, right.Field(ri).Type)
	}
	fields := make([]stream.Field, 0, left.NumFields()+right.NumFields())
	for _, f := range left.Fields() {
		f.Name = "l_" + f.Name
		fields = append(fields, f)
	}
	for _, f := range right.Fields() {
		f.Name = "r_" + f.Name
		fields = append(fields, f)
	}
	out, err := stream.NewSchema(name, fields...)
	if err != nil {
		return nil, fmt.Errorf("operator %s: output schema: %w", name, err)
	}
	j := &WindowJoin{
		base: newBase(name, cost, out),
		keyL: li, keyR: ri,
	}
	j.sides[0] = &joinSide{win: stream.NewWindow[stream.Tuple](spec), index: make(map[string][]stream.Tuple), key: li}
	j.sides[1] = &joinSide{win: stream.NewWindow[stream.Tuple](spec), index: make(map[string][]stream.Tuple), key: ri}
	return j, nil
}

// Process implements Operator. Port 0 is the left input, port 1 the right.
func (j *WindowJoin) Process(port int, t stream.Tuple) []stream.Tuple {
	if port < 0 || port > 1 {
		panic(badPort(j.name, port, 2))
	}
	mine, other := j.sides[port], j.sides[1-port]
	j.insert(mine, t)
	key := t.Value(mine.key).String()
	matches := other.index[key]
	if len(matches) == 0 {
		j.stats.record(0)
		return nil
	}
	outs := make([]stream.Tuple, 0, len(matches))
	for _, m := range matches {
		var left, right stream.Tuple
		if port == 0 {
			left, right = t, m
		} else {
			left, right = m, t
		}
		vals := make([]stream.Value, 0, len(left.Values)+len(right.Values))
		vals = append(vals, left.Values...)
		vals = append(vals, right.Values...)
		ts := left.Ts
		if right.Ts.After(ts) {
			ts = right.Ts
		}
		outs = append(outs, stream.Tuple{Stream: j.name, Seq: t.Seq, Ts: ts, Values: vals})
	}
	j.stats.record(len(outs))
	return outs
}

// insert adds t to a side's window and keeps the hash index in sync with
// evictions.
func (j *WindowJoin) insert(side *joinSide, t stream.Tuple) {
	ts := t.Ts.UnixNano()
	side.scratch = side.win.Evict(ts, side.scratch[:0])
	for _, old := range side.scratch {
		j.removeFromIndex(side, old)
	}
	side.win.Add(ts, t)
	key := t.Value(side.key).String()
	side.index[key] = append(side.index[key], t)
}

func (j *WindowJoin) removeFromIndex(side *joinSide, t stream.Tuple) {
	key := t.Value(side.key).String()
	list := side.index[key]
	for i := range list {
		if list[i].Seq == t.Seq && list[i].Ts.Equal(t.Ts) {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(side.index, key)
	} else {
		side.index[key] = list
	}
}

// StateSize estimates the bytes of operator state (both windows), the
// quantity that makes operator migration expensive — measured by the
// coupling trade-off experiment (E8).
func (j *WindowJoin) StateSize() int {
	n := 0
	for _, side := range j.sides {
		side.win.Each(func(_ int64, t stream.Tuple) bool {
			n += t.Size()
			return true
		})
	}
	return n
}
