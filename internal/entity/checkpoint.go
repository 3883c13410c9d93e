// Entity-level checkpoint capture (DESIGN.md §12): a consistent cut of
// one query's operator state plus the per-stream high-water marks that
// bound the upstream replay needed to catch the state up after a crash.
//
// Consistency argument: the gate is paused first, so no new tuple
// advances the marks; the transport is then allowed to quiesce briefly
// and the hosting engines are drained, so every tuple admitted before
// the pause — including ones in flight to a remote fragment processor —
// is reflected in the snapshot; only then are the marks read. The gate
// reopens by replaying its pause buffer in place, so capture never
// loses a tuple.
package entity

import (
	"fmt"
	"time"

	"sspd/internal/engine"
)

// checkpointSettle bounds the wait for in-flight intra-entity feeds to
// land before the drain; on a momentarily quiet transport it returns
// immediately.
const checkpointSettle = 50 * time.Millisecond

// checkpointDrain bounds the engine drain before the snapshot.
const checkpointDrain = time.Second

// SetIngestDedup switches (stream, seq) high-water dedup on or off for
// every current and future ingest gate. Checkpointing federations turn
// it on: it makes recovery replay idempotent, at the cost of assuming
// per-stream monotone tuple delivery.
func (e *Entity) SetIngestDedup(on bool) {
	e.mu.Lock()
	e.dedup = on
	gates := make([]*ingestGate, 0, len(e.queries))
	for _, pq := range e.queries {
		gates = append(gates, pq.gate)
	}
	e.mu.Unlock()
	for _, g := range gates {
		g.setDedup(on)
	}
}

// SetQueryMarks installs per-stream high-water marks on a query's gate
// — recovery calls it after restoring a checkpoint so the replayed
// suffix dedups against the restored state.
func (e *Entity) SetQueryMarks(id string, marks map[string]uint64) error {
	pq, _, err := e.lookupQuery(id)
	if err != nil {
		return err
	}
	pq.gate.setMarks(marks)
	return nil
}

// QueryMarks returns a query's current per-stream high-water marks.
func (e *Entity) QueryMarks(id string) (map[string]uint64, bool) {
	pq, _, err := e.lookupQuery(id)
	if err != nil {
		return nil, false
	}
	return pq.gate.marksCopy(), true
}

// StaleDrops totals the tuples dropped as stale (at or below a gate's
// mark) across all queries — replay duplicates suppressed by dedup.
func (e *Entity) StaleDrops() int64 {
	e.mu.Lock()
	gates := make([]*ingestGate, 0, len(e.queries))
	for _, pq := range e.queries {
		gates = append(gates, pq.gate)
	}
	e.mu.Unlock()
	total := int64(0)
	for _, g := range gates {
		total += g.staleCount()
	}
	return total
}

// CheckpointQuery captures a consistent cut of one query: pause the
// gate, let in-flight feeds land, drain the engines, snapshot operator
// state, read the marks, and resume by replaying the pause buffer. ok
// is false (no error) when a hosting engine lacks the StateSnapshotter
// capability — such queries recover stateless, from the spec alone.
func (e *Entity) CheckpointQuery(id string) (st map[string]engine.QueryState,
	marks map[string]uint64, stateBytes int, ok bool, err error) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return nil, nil, 0, false, err
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, nil, 0, false, fmt.Errorf("entity %s: closed", e.id)
	}
	pq.gate.pause()
	resume := func() { pq.gate.open(nil, e.headFeeder(pq, procs)) }
	if q, can := e.transport.(interface{ Quiesce(time.Duration) bool }); can {
		q.Quiesce(checkpointSettle)
	}
	if err = e.DrainQuery(id, checkpointDrain); err == nil {
		st, stateBytes, ok, err = e.SnapshotQuery(id)
	}
	if err != nil || !ok {
		resume()
		return nil, nil, 0, ok, err
	}
	marks = pq.gate.marksCopy()
	resume()
	return st, marks, stateBytes, true, nil
}
