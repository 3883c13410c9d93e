// The checkpoint plane's view of the handoff (DESIGN.md §10 "Handoff",
// §12): a checkpoint is a capture whose query stays where it is. The
// record made from it — state plus cut — is what a crash recovery
// restores, and the cut bounds the upstream replay that catches the
// state up.
package entity

import "time"

// checkpointWait bounds each wait of a checkpoint's capture. It is short
// because the sweep pauses every query in turn while tuples flow; a live
// handoff passes its own, longer bound.
const checkpointWait = 250 * time.Millisecond

// SetIngestDedup switches (stream, seq) high-water dedup on or off for
// every current and future ingest gate. Checkpointing federations turn
// it on: it makes recovery replay idempotent, at the cost of assuming
// per-stream monotone tuple delivery.
func (e *Entity) SetIngestDedup(on bool) {
	e.mu.Lock()
	e.dedup = on
	e.mu.Unlock()
	for _, g := range e.gates() {
		g.mu.Lock()
		g.dedup = on
		g.mu.Unlock()
	}
}

// gates lists every placed query's gate.
func (e *Entity) gates() []*ingestGate {
	e.mu.Lock()
	defer e.mu.Unlock()
	gates := make([]*ingestGate, 0, len(e.queries))
	for _, pq := range e.queries {
		gates = append(gates, pq.gate)
	}
	return gates
}

// CheckpointQuery captures one query and resumes it in place, replaying
// what its gate buffered meanwhile, so a checkpoint never loses a tuple.
func (e *Entity) CheckpointQuery(id string) (Captured, error) {
	c := e.CaptureQueries([]string{id}, checkpointWait)[0]
	_, _, _ = e.ResumeQuery(id, nil) // fails only for the unknown ID c.Err already names
	return c, c.Err
}
