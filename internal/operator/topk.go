package operator

import (
	"fmt"

	"sspd/internal/stream"
)

// Distinct suppresses duplicate tuples within a sliding window, keyed by
// one field: a tuple passes iff no tuple with the same key is currently
// in the window. Stock tickers use it to deduplicate bursts of identical
// quotes.
type Distinct struct {
	base
	in      *stream.Schema // the layout of snapshot rows
	keyIdx  int
	win     *stream.Window[*distinctKey]
	counts  map[string]*distinctKey
	free    []*distinctKey // cells of keys that left the window, for reuse
	scratch []*distinctKey
	// seal gives the rows that pass Values of their own (SealResults).
	seal bool
}

// distinctKey is one key's count cell: how many window rows hold the
// key, the key as the first of them held it (which a snapshot row writes
// back) and its string form, the cell's name in counts. A window slot is
// a pointer to its row's cell.
type distinctKey struct {
	n    int
	key  stream.Value
	name string
}

// NewDistinct builds a windowed distinct on keyField.
func NewDistinct(name string, in *stream.Schema, keyField string, spec stream.WindowSpec, cost float64) (*Distinct, error) {
	if in == nil {
		return nil, fmt.Errorf("operator %s: nil input schema", name)
	}
	idx, ok := in.FieldIndex(keyField)
	if !ok {
		return nil, fmt.Errorf("operator %s: schema %s has no field %q", name, in.Name(), keyField)
	}
	return &Distinct{
		base:   newBase(name, cost, in),
		in:     in,
		keyIdx: idx,
		win:    stream.NewWindow[*distinctKey](spec),
		counts: make(map[string]*distinctKey),
	}, nil
}

// Process implements Operator: the one-row form of ProcessBatch.
func (d *Distinct) Process(port int, t stream.Tuple) []stream.Tuple {
	if port != 0 {
		panic(badPort(d.name, port, 1))
	}
	return d.ProcessBatch([]stream.Tuple{t}, nil)
}

// SealResults makes the operator copy the Values of the rows that pass
// into one slab per batch, as Aggregate and TopK cut their results: an
// engine seals a distinct that is its query's last stage, so no result
// shares storage with the rows the query was fed. A distinct feeding
// another tail stage passes rows unchanged, at no cost.
func (d *Distinct) SealResults() { d.seal = true }

// ProcessBatch consumes rows in order and appends those that pass to dst,
// which it returns: unchanged, allocating nothing, or with their Values
// in one slab allocated by this call when the operator seals.
func (d *Distinct) ProcessBatch(rows, dst []stream.Tuple) []stream.Tuple {
	base := len(dst)
	for i := range rows {
		if !d.insert(&rows[i]) {
			dst = append(dst, rows[i])
		}
	}
	if d.seal {
		sealRows(dst[base:])
	}
	d.stats.RecordBatch(len(rows), len(dst)-base)
	return dst
}

// insert uncounts the rows t pushes out of the window, counts t, and
// reports whether t's key was already in the window.
func (d *Distinct) insert(t *stream.Tuple) (seen bool) {
	ts := t.Ts.UnixNano()
	d.scratch = d.win.Evict(ts, d.scratch[:0])
	for _, c := range d.scratch {
		if c.n--; c.n == 0 {
			delete(d.counts, c.name)
			d.free = append(d.free, c)
		}
	}
	key := t.Value(d.keyIdx)
	name := key.String()
	c := d.counts[name]
	if c == nil {
		c = reuse(&d.free)
		c.key, c.name = key, name
		d.counts[name] = c
	}
	c.n++
	d.win.Add(ts, c)
	return c.n > 1
}

// TopK maintains the current top-k tuples by a numeric field over a
// sliding window, grouped globally. For every input it emits the updated
// rank of the input's key when the input enters the top k (otherwise
// nothing) — the "leaders board" query of sports and financial tickers.
//
// The ranking is kept, not recomputed: beside the window there is one
// monotonic deque per key (its window maximum, tail.go) and one slice of
// every key ordered by (maximum descending, key ascending), which moves
// an entry only when that key's maximum changes. A tuple costs a push,
// its evictions and a binary search, whatever the window holds. NaN
// ranks below every number (beats); keys whose window holds only NaN
// tie, in key order.
type TopK struct {
	base
	in       *stream.Schema // the layout of snapshot rows
	k        int
	valueIdx int
	keyIdx   int
	win      *stream.Window[topSlot]
	keys     map[string]*topKey
	rank     []rankEnt
	free     []*topKey // entries of keys that left the window, for reuse
	// next and oldest are the insertion ordinals of the next tuple to
	// enter the window and of the oldest one in it.
	next, oldest uint64
	scratch      []topSlot
	staged       []stream.Value
}

// topKey is one key's entry: the deque of its window maximum, the key as
// its first row held it (which a snapshot row writes back) and its
// string form, the entry's name in keys and in the ranking.
type topKey struct {
	dq   maxDeque
	key  stream.Value
	name string
}

// topSlot is what the window keeps of a row: its key's entry and its
// value.
type topSlot struct {
	k *topKey
	v float64
}

// rankEnt is one key's place in the ranking. max duplicates the front
// of the key's deque so that a search touches the slice alone.
type rankEnt struct {
	max float64
	key string
}

// NewTopK builds a top-k operator: rank keys by the maximum of
// valueField within the window. Output schema: (key:string, value:float,
// rank:int) on a stream named after the operator.
func NewTopK(name string, in *stream.Schema, k int, valueField, keyField string,
	spec stream.WindowSpec, cost float64) (*TopK, error) {
	if in == nil {
		return nil, fmt.Errorf("operator %s: nil input schema", name)
	}
	if k < 1 {
		return nil, fmt.Errorf("operator %s: k must be >= 1", name)
	}
	vi, ok := in.FieldIndex(valueField)
	if !ok {
		return nil, fmt.Errorf("operator %s: schema %s has no field %q", name, in.Name(), valueField)
	}
	if in.Field(vi).Type == stream.KindString {
		return nil, fmt.Errorf("operator %s: cannot rank by string field %q", name, valueField)
	}
	ki, ok := in.FieldIndex(keyField)
	if !ok {
		return nil, fmt.Errorf("operator %s: schema %s has no key field %q", name, in.Name(), keyField)
	}
	out, err := stream.NewSchema(name,
		stream.Field{Name: "key", Type: stream.KindString},
		stream.Field{Name: "value", Type: stream.KindFloat},
		stream.Field{Name: "rank", Type: stream.KindInt},
	)
	if err != nil {
		return nil, err
	}
	return &TopK{
		base:     newBase(name, cost, out),
		in:       in,
		k:        k,
		valueIdx: vi,
		keyIdx:   ki,
		win:      stream.NewWindow[topSlot](spec),
		keys:     make(map[string]*topKey),
	}, nil
}

// Process implements Operator: the one-row form of ProcessBatch.
func (t *TopK) Process(port int, tu stream.Tuple) []stream.Tuple {
	if port != 0 {
		panic(badPort(t.name, port, 1))
	}
	return t.ProcessBatch([]stream.Tuple{tu}, nil)
}

// ProcessBatch consumes rows in order and, for each row whose key ranks
// in the top k once the row is in the window, appends (key, the key's
// window maximum, 1-based rank) to dst, which it returns. The results'
// Values share one slab allocated by this call.
func (t *TopK) ProcessBatch(rows, dst []stream.Tuple) []stream.Tuple {
	base := len(dst)
	t.staged = t.staged[:0]
	for i := range rows {
		k := t.insert(&rows[i])
		m := k.dq.max()
		if r := t.find(m, k.name, min(t.k, len(t.rank))); r < t.k {
			dst = append(dst, stream.Tuple{Stream: t.name, Seq: rows[i].Seq, Ts: rows[i].Ts})
			t.staged = append(t.staged, stream.String(k.name), stream.Float(m), stream.Int(int64(r+1)))
		}
	}
	sealValues(dst[base:], t.staged, 3)
	t.stats.RecordBatch(len(rows), len(dst)-base)
	return dst
}

// insert enters tu into its key's deque, moving the key in the ranking
// if its maximum changed, then takes the rows tu pushes out of the
// window out of theirs, and enters tu into the window. It returns tu's
// key entry, which tu keeps in the window.
func (t *TopK) insert(tu *stream.Tuple) *topKey {
	key := tu.Value(t.keyIdx)
	name := key.String()
	v := tu.Value(t.valueIdx).AsFloat()
	k := t.keys[name]
	if k == nil {
		k = reuse(&t.free)
		k.key, k.name = key, name
		t.keys[name] = k
		k.dq.push(t.next, v)
		at := t.find(v, name, len(t.rank))
		t.rank = append(t.rank, rankEnt{})
		copy(t.rank[at+1:], t.rank[at:])
		t.rank[at] = rankEnt{v, name}
	} else {
		old := k.dq.max()
		k.dq.push(t.next, v)
		if beats(v, old) {
			t.rerank(name, old, v)
		}
	}
	t.next++
	ts := tu.Ts.UnixNano()
	t.scratch = t.win.Evict(ts, t.scratch[:0])
	for _, s := range t.scratch {
		t.evict(s.k)
	}
	t.win.Add(ts, topSlot{k, v})
	return k
}

// evict takes the window's oldest row, of key entry k, out of the index.
func (t *TopK) evict(k *topKey) {
	ord := t.oldest
	t.oldest++
	was := k.dq.max()
	if !k.dq.evict(ord) {
		return // a later, better value of the key had displaced it
	}
	if k.dq.n == 0 {
		at := t.find(was, k.name, len(t.rank))
		t.rank = append(t.rank[:at], t.rank[at+1:]...)
		delete(t.keys, k.name)
		k.dq.head = 0
		t.free = append(t.free, k)
	} else if now := k.dq.max(); beats(was, now) {
		t.rerank(k.name, was, now)
	}
}

// find returns how many of the first n ranking entries come before
// (max, key): the entry's own index when it is among them, else where
// it would be inserted.
func (t *TopK) find(max float64, key string, n int) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := &t.rank[mid]
		if beats(e.max, max) || !beats(max, e.max) && e.key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rerank moves key's entry from where maximum old put it to where now
// puts it, shifting only the entries in between. The searches for now
// run while the stale entry is still in place: it sorts after (now, key)
// when the key moved up and before it when the key moved down, so the
// slice is ordered either way and only the second count includes it.
func (t *TopK) rerank(key string, old, now float64) {
	from := t.find(old, key, len(t.rank))
	to := t.find(now, key, len(t.rank))
	if to <= from {
		copy(t.rank[to+1:from+1], t.rank[to:from])
	} else {
		to--
		copy(t.rank[from:to], t.rank[from+1:to+1])
	}
	t.rank[to] = rankEnt{now, key}
}

// reset empties the window and the index, for RestoreState's replay.
func (t *TopK) reset() {
	t.win.Clear()
	clear(t.keys)
	t.rank = t.rank[:0]
	t.next, t.oldest = 0, 0
}
