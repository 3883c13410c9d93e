package operator

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"sspd/internal/stream"
)

// Stateful is the optional capability behind live query migration
// (DESIGN.md §10): an operator that can serialize its runtime state at
// the source entity and rebuild it at the destination. Snapshots embed
// the operator's Stats so learned selectivities survive a move (the
// Adaptation Module's re-ordering decisions keep their history), then
// the window as a tuple batch, oldest first. A join's windows hold whole
// tuples and write them. A tail operator's window holds slots — what it
// reads back when a row leaves: a group state and a value, a key's count
// cell, a key entry and a value — and writes each as a row carrying the
// slot's event time and only the fields the operator reads (see
// appendSlots). Restore replays the rows through the operator's own
// insert — the same function its process path uses — so every derived
// structure (group accumulators and extremum deques, join hash indexes,
// distinct counts, the top-k ranking) is rebuilt consistently — from the
// whole tuples a tail snapshot held before its windows held slots, too.
// StateBytes is the size of the snapshot: what a migration ships.
//
// Snapshot and Restore follow the same single-threaded contract as
// Process: the owning engine serializes them with tuple processing.
type Stateful interface {
	// SnapshotState serializes the operator's runtime state.
	SnapshotState() []byte
	// RestoreState replaces the operator's runtime state with a
	// previously snapshotted one.
	RestoreState(data []byte) error
	// StateBytes estimates the serialized state size without
	// serializing — the cost term of the migration hysteresis check.
	StateBytes() int
}

// statsLen is the fixed encoded size of one Stats block.
const statsLen = 8 + 8 + 8 + 1

// ExportStats returns the raw statistics for state snapshots.
func (s *Stats) ExportStats() (in, out int64, sel float64, init bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in, s.out, s.sel.value, s.sel.init
}

// ImportStats overwrites the statistics from a snapshot.
func (s *Stats) ImportStats(in, out int64, sel float64, init bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in, s.out = in, out
	s.sel.value, s.sel.init = sel, init
}

func appendStats(dst []byte, s *Stats) []byte {
	in, out, sel, init := s.ExportStats()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(in))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(out))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sel))
	if init {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

func decodeStats(buf []byte, s *Stats) (int, error) {
	if len(buf) < statsLen {
		return 0, fmt.Errorf("operator: truncated stats block (%d bytes)", len(buf))
	}
	in := int64(binary.LittleEndian.Uint64(buf))
	out := int64(binary.LittleEndian.Uint64(buf[8:]))
	sel := math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	s.ImportStats(in, out, sel, buf[24] == 1)
	return statsLen, nil
}

// appendWindow serializes a join side's window oldest→newest as a batch.
func appendWindow(dst []byte, w *stream.Window[stream.Tuple]) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Len()))
	w.Each(func(_ int64, t stream.Tuple) bool {
		dst = stream.AppendTuple(dst, t)
		return true
	})
	return dst
}

// windowBytes sums the wire sizes of a join side's tuples.
func windowBytes(w *stream.Window[stream.Tuple]) int {
	n := 4 // batch count prefix
	w.Each(func(_ int64, t stream.Tuple) bool {
		n += t.Size()
		return true
	})
	return n
}

// appendSlots writes a tail operator's window as a batch, oldest row
// first. Each slot becomes a row of the input schema in that carries the
// slot's event time and the fields set writes from the slot: the ones
// insert reads, at their schema positions and in their schema kinds.
// Every other field holds its kind's zero value; Seq and Span are zero.
func appendSlots[T any](dst []byte, in *stream.Schema, w *stream.Window[T], set func([]stream.Value, T)) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Len()))
	eachRow(in, w, set, func(r *stream.Tuple) { dst = stream.AppendTuple(dst, *r) })
	return dst
}

// slotsBytes is the size of appendSlots' batch.
func slotsBytes[T any](in *stream.Schema, w *stream.Window[T], set func([]stream.Value, T)) int {
	n := 4 // batch count prefix
	eachRow(in, w, set, func(r *stream.Tuple) { n += r.Size() })
	return n
}

// eachRow calls fn with the row of every slot of w, oldest first,
// reusing one row.
func eachRow[T any](in *stream.Schema, w *stream.Window[T], set func([]stream.Value, T), fn func(*stream.Tuple)) {
	zero := make([]stream.Value, in.NumFields())
	for i := range zero {
		switch in.Field(i).Type {
		case stream.KindInt:
			zero[i] = stream.Int(0)
		case stream.KindFloat:
			zero[i] = stream.Float(0)
		case stream.KindString:
			zero[i] = stream.String("")
		}
	}
	row := stream.Tuple{Stream: in.Name(), Values: make([]stream.Value, len(zero))}
	w.Each(func(ts int64, s T) bool {
		copy(row.Values, zero)
		set(row.Values, s)
		row.Ts = time.Unix(0, ts)
		fn(&row)
		return true
	})
}

// number is a numeric field's value in the field's kind k, given the
// float insert read from it: an int field gets back the int the float
// came from, so the replay's AsFloat reads the same float. A float no
// int gives exactly — only a row that broke its schema holds one —
// stays a float, for the same reason.
func number(k stream.Kind, f float64) stream.Value {
	if k == stream.KindInt {
		i := int64(math.MaxInt64) // float64(MaxInt64) rounds up to 2^63
		if f < 0x1p63 {
			i = int64(f)
		}
		if math.Float64bits(float64(i)) == math.Float64bits(f) {
			return stream.Int(i)
		}
	}
	return stream.Float(f)
}

// decodeWindowState decodes the snapshot of a one-window operator: its
// stats block, imported into s, then the window's tuples oldest first.
func decodeWindowState(data []byte, s *Stats) (stream.Batch, error) {
	n, err := decodeStats(data, s)
	if err != nil {
		return nil, err
	}
	b, _, err := stream.DecodeBatch(data[n:])
	return b, err
}

// Compile-time capability checks: every stateful operator in the
// library implements Stateful.
var (
	_ Stateful = (*Filter)(nil)
	_ Stateful = (*Aggregate)(nil)
	_ Stateful = (*WindowJoin)(nil)
	_ Stateful = (*Distinct)(nil)
	_ Stateful = (*TopK)(nil)
)

// SnapshotState implements Stateful. A filter has no window; its state
// is the learned selectivity estimate.
func (f *Filter) SnapshotState() []byte { return appendStats(nil, f.stats) }

// RestoreState implements Stateful.
func (f *Filter) RestoreState(data []byte) error {
	_, err := decodeStats(data, f.stats)
	return err
}

// StateBytes implements Stateful.
func (f *Filter) StateBytes() int { return statsLen }

// SnapshotState implements Stateful: stats plus the window's rows.
func (a *Aggregate) SnapshotState() []byte {
	return appendSlots(appendStats(nil, a.stats), a.in, a.win, a.setRow)
}

// setRow writes what a row of the window contributed: its group and,
// unless the function is a count, its value — last, so that when the
// value is also the group field the row holds its own value.
func (a *Aggregate) setRow(vals []stream.Value, s aggSlot) {
	if a.groupIdx >= 0 {
		vals[a.groupIdx] = s.st.group
	}
	if a.fn != AggCount {
		vals[a.valueIdx] = number(a.in.Field(a.valueIdx).Type, s.v)
	}
}

// RestoreState implements Stateful: the window is replayed through the
// aggregate's own insert, rebuilding the group accumulators.
func (a *Aggregate) RestoreState(data []byte) error {
	b, err := decodeWindowState(data, a.stats)
	if err != nil {
		return err
	}
	a.reset()
	for i := range b {
		a.insert(&b[i])
	}
	return nil
}

// StateBytes implements Stateful.
func (a *Aggregate) StateBytes() int { return statsLen + slotsBytes(a.in, a.win, a.setRow) }

// SnapshotState implements Stateful: stats plus both side windows, in
// port order.
func (j *WindowJoin) SnapshotState() []byte {
	dst := appendStats(nil, j.stats)
	dst = appendWindow(dst, j.sides[0].win)
	return appendWindow(dst, j.sides[1].win)
}

// RestoreState implements Stateful: each side's window is re-inserted in
// order, rebuilding the hash indexes.
func (j *WindowJoin) RestoreState(data []byte) error {
	n, err := decodeStats(data, j.stats)
	if err != nil {
		return err
	}
	for port := 0; port < 2; port++ {
		b, used, err := stream.DecodeBatch(data[n:])
		if err != nil {
			return fmt.Errorf("operator %s: side %d: %w", j.name, port, err)
		}
		n += used
		side := j.sides[port]
		side.win.Clear()
		side.index = make(map[string][]stream.Tuple)
		for _, t := range b {
			j.insert(side, t)
		}
	}
	return nil
}

// StateBytes implements Stateful.
func (j *WindowJoin) StateBytes() int {
	return statsLen + windowBytes(j.sides[0].win) + windowBytes(j.sides[1].win)
}

// SnapshotState implements Stateful: stats plus the window's rows.
func (d *Distinct) SnapshotState() []byte {
	return appendSlots(appendStats(nil, d.stats), d.in, d.win, d.setRow)
}

// setRow writes a window row's key.
func (d *Distinct) setRow(vals []stream.Value, c *distinctKey) { vals[d.keyIdx] = c.key }

// RestoreState implements Stateful: replaying the window through insert
// rebuilds the per-key counts.
func (d *Distinct) RestoreState(data []byte) error {
	b, err := decodeWindowState(data, d.stats)
	if err != nil {
		return err
	}
	d.win.Clear()
	clear(d.counts)
	for i := range b {
		d.insert(&b[i])
	}
	return nil
}

// StateBytes implements Stateful.
func (d *Distinct) StateBytes() int { return statsLen + slotsBytes(d.in, d.win, d.setRow) }

// SnapshotState implements Stateful: stats plus the window's rows.
func (t *TopK) SnapshotState() []byte {
	return appendSlots(appendStats(nil, t.stats), t.in, t.win, t.setRow)
}

// setRow writes a window row's key and value.
func (t *TopK) setRow(vals []stream.Value, s topSlot) {
	vals[t.keyIdx] = s.k.key
	vals[t.valueIdx] = number(t.in.Field(t.valueIdx).Type, s.v)
}

// RestoreState implements Stateful: replaying the window through insert
// rebuilds the per-key deques and the ranking.
func (t *TopK) RestoreState(data []byte) error {
	b, err := decodeWindowState(data, t.stats)
	if err != nil {
		return err
	}
	t.reset()
	for i := range b {
		t.insert(&b[i])
	}
	return nil
}

// StateBytes implements Stateful.
func (t *TopK) StateBytes() int { return statsLen + slotsBytes(t.in, t.win, t.setRow) }
