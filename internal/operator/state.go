package operator

import (
	"encoding/binary"
	"fmt"
	"math"

	"sspd/internal/stream"
)

// Stateful is the optional capability behind live query migration
// (DESIGN.md §10): an operator that can serialize its runtime state at
// the source entity and rebuild it at the destination. Snapshots embed
// the operator's Stats so learned selectivities survive a move (the
// Adaptation Module's re-ordering decisions keep their history), and
// window contents are restored by replaying the snapshotted tuples
// through the operator's own insert — the same function its process
// path uses — so every derived structure (group accumulators and
// extremum deques, join hash indexes, distinct counts, the top-k
// ranking) is rebuilt consistently.
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

// appendWindow serializes a window's contents oldest→newest as a batch.
func appendWindow(dst []byte, w *stream.Window) []byte {
	b := make(stream.Batch, 0, w.Len())
	w.Each(func(t stream.Tuple) bool {
		b = append(b, t)
		return true
	})
	return stream.AppendBatch(dst, b)
}

// windowBytes sums the wire sizes of a window's tuples.
func windowBytes(w *stream.Window) int {
	n := 4 // batch count prefix
	w.Each(func(t stream.Tuple) bool {
		n += t.Size()
		return true
	})
	return n
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

// SnapshotState implements Stateful: stats plus the window contents.
func (a *Aggregate) SnapshotState() []byte {
	return appendWindow(appendStats(nil, a.stats), a.win)
}

// RestoreState implements Stateful: the window is replayed through the
// aggregate's own insert, rebuilding the group accumulators.
func (a *Aggregate) RestoreState(data []byte) error {
	b, err := decodeWindowState(data, a.stats)
	if err != nil {
		return err
	}
	a.reset()
	for _, t := range b {
		a.insert(t)
	}
	return nil
}

// StateBytes implements Stateful.
func (a *Aggregate) StateBytes() int { return statsLen + windowBytes(a.win) }

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

// SnapshotState implements Stateful.
func (d *Distinct) SnapshotState() []byte {
	return appendWindow(appendStats(nil, d.stats), d.win)
}

// RestoreState implements Stateful: replaying the window through insert
// rebuilds the per-key counts.
func (d *Distinct) RestoreState(data []byte) error {
	b, err := decodeWindowState(data, d.stats)
	if err != nil {
		return err
	}
	d.win.Clear()
	clear(d.counts)
	for _, t := range b {
		d.insert(t)
	}
	return nil
}

// StateBytes implements Stateful.
func (d *Distinct) StateBytes() int { return statsLen + windowBytes(d.win) }

// SnapshotState implements Stateful.
func (t *TopK) SnapshotState() []byte {
	return appendWindow(appendStats(nil, t.stats), t.win)
}

// RestoreState implements Stateful: replaying the window through insert
// rebuilds the per-key deques and the ranking.
func (t *TopK) RestoreState(data []byte) error {
	b, err := decodeWindowState(data, t.stats)
	if err != nil {
		return err
	}
	t.reset()
	for _, tu := range b {
		t.insert(tu)
	}
	return nil
}

// StateBytes implements Stateful.
func (t *TopK) StateBytes() int { return statsLen + windowBytes(t.win) }
