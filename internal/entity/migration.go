// The entity's half of a query handoff (DESIGN.md §10 "Handoff"): the
// ingest gate and the five calls the federation drives it with.
//
// A gate sits between the delegation fan-out and a query's head
// fragment. Closed, it buffers the query's input instead of delivering
// it, so nothing is lost while operator state is read or in transit;
// open, it remembers per stream the highest sequence it has let through.
// That high-water, read while the gate is closed and the engines are
// drained, is the query's cut: exactly what a snapshot taken then
// reflects. Every way a query's state leaves an entity is one capture
// (CaptureQueries: close, drain, snapshot, cut), and every way it
// arrives is PrepareQuery (placed closed), RestoreQuery (state and cut)
// and ResumeQuery (open with a replay) — whether the state comes from a
// live source, which is then detached (DetachQuery) and hands over what
// it buffered, or from a checkpoint record, which is a capture that was
// resumed in place (CheckpointQuery) and written down.
package entity

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// maxPauseBuffer bounds the tuples a paused query will hold; overflow is
// dropped and counted, mirroring the engine's bounded-queue policy.
const maxPauseBuffer = 1 << 16

// replayChunk bounds how many buffered tuples are fed between engine
// drains on resume, so replay cannot overflow a shard's ring.
const replayChunk = 512

// seqMark is one stream's high-water sequence at a gate.
type seqMark struct {
	stream string
	seq    uint64
}

// ingestGate sits between the delegation fan-out and a query's head
// fragment. While paused it buffers batches instead of delivering them.
type ingestGate struct {
	mu       sync.Mutex
	paused   bool
	buf      stream.Batch
	overflow int
	// marks holds, per source stream, the highest Seq the gate has let
	// through or a restored state already covers — what a capture reports
	// as the query's cut. A stream is listed once a tuple of it has
	// passed, so "nothing yet" and "up to seq 0" stay apart. A query
	// reads one or two streams: a scan, not a map probe.
	marks []seqMark
	// restored says the marks were installed by restore and the buffer
	// has not been held against them yet: the next open drops what they
	// cover from the gate's own buffer. Only that open does — a gate
	// reopened in place keeps its whole buffer, because under reordering
	// it holds tuples below the high-water the query has not seen.
	restored bool
	// dedup makes the open gate drop tuples at or below their stream's
	// mark, so a tuple of a recovery's replay that is still on the wire
	// when the gate opens is not processed twice. Opt-in: it assumes
	// per-stream monotone delivery, which only checkpointing federations
	// (no reorder faults on the tuple path) guarantee.
	dedup bool
	stale int64
	// unfed counts the batches admit let through that the fan-out has
	// not handed to an engine (or sent to its processor) yet. admit counts
	// under mu, so once pause returns it only falls; a capture and open
	// wait for zero: such a batch is in neither the engine nor the buffer.
	unfed atomic.Int32
}

// admit returns the sub-batch the caller should deliver: the input
// unchanged on the open fast path, a filtered copy when dedup dropped
// stale tuples, or nil when the gate consumed everything (paused, or
// fully stale). b is one stream's and hi its highest Seq. Every
// non-empty return is counted in unfed until the caller has handed the
// sub-batch over.
func (g *ingestGate) admit(b stream.Batch, hi uint64) stream.Batch {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.paused:
		room := max(maxPauseBuffer-len(g.buf), 0)
		if len(b) > room {
			g.overflow += len(b) - room
			b = b[:room]
		}
		// A copy, not the shared rows: they may live in an arena the
		// engines release while the gate still holds its buffer.
		g.buf = append(g.buf, b.Compact(nil)...)
		return nil
	case g.dedup:
		b = g.filterLocked(b)
	default:
		g.raiseLocked(b[0].Stream, hi)
	}
	if len(b) > 0 {
		g.unfed.Add(1)
	}
	return b
}

// coveredLocked reports whether t is at or below its stream's mark. A
// stream without a mark covers nothing, not even Seq 0.
func (g *ingestGate) coveredLocked(t *stream.Tuple) bool {
	for i := range g.marks {
		if g.marks[i].stream == t.Stream {
			return t.Seq <= g.marks[i].seq
		}
	}
	return false
}

func (g *ingestGate) raiseLocked(streamName string, seq uint64) {
	for i := range g.marks {
		if m := &g.marks[i]; m.stream == streamName {
			if seq > m.seq {
				m.seq = seq
			}
			return
		}
	}
	g.marks = append(g.marks, seqMark{streamName, seq})
}

// filterLocked drops tuples at or below their stream's mark and
// advances the marks past the admitted ones. The no-stale common case
// returns the input batch without allocating.
func (g *ingestGate) filterLocked(b stream.Batch) stream.Batch {
	stale := 0
	for i := range b {
		if g.coveredLocked(&b[i]) {
			stale++
		}
	}
	if stale == 0 {
		for i := range b {
			g.raiseLocked(b[i].Stream, b[i].Seq)
		}
		return b
	}
	g.stale += int64(stale)
	if stale == len(b) {
		return nil
	}
	out := make(stream.Batch, 0, len(b)-stale)
	for i := range b {
		if g.coveredLocked(&b[i]) {
			continue
		}
		g.raiseLocked(b[i].Stream, b[i].Seq)
		out = append(out, b[i])
	}
	return out
}

// restore installs the cut of a state the query was just given: it
// becomes the gate's marks, and the next open holds the buffer against
// it.
func (g *ingestGate) restore(cut map[string]uint64) {
	g.mu.Lock()
	g.marks = g.marks[:0]
	for s, seq := range cut {
		g.marks = append(g.marks, seqMark{s, seq})
	}
	g.restored = true
	g.mu.Unlock()
}

// cut snapshots the marks.
func (g *ingestGate) cut() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.marks))
	for _, m := range g.marks {
		out[m.stream] = m.seq
	}
	return out
}

func (g *ingestGate) pause() {
	g.mu.Lock()
	g.paused = true
	g.mu.Unlock()
}

// waitFed waits until every batch the gate admitted has been handed
// over, or the deadline passes. The fan-out decrements unfed without
// the gate mutex, so waiting cannot hold it up.
func (g *ingestGate) waitFed(deadline time.Time) bool {
	for g.unfed.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// open feeds replay united with the gate's own buffer and unpauses —
// atomically, so a live batch arriving during the replay cannot
// overtake it (admit blocks on the gate mutex until the gate is open;
// the feed path never re-enters the gate). A batch admitted before the
// pause goes first: open waits for it to be handed over. After a
// restore, the own buffer first loses what the restored cut covers —
// the replay never does: a source's pause buffer is exactly what its
// state has not seen, in whatever order it arrived.
func (g *ingestGate) open(replay stream.Batch, feed func(stream.Batch)) (replayed, dropped int) {
	g.waitFed(time.Now().Add(time.Second))
	g.mu.Lock()
	defer g.mu.Unlock()
	own := g.buf
	if g.restored {
		own = own[:0]
		for i := range g.buf {
			if g.coveredLocked(&g.buf[i]) {
				g.stale++
				continue
			}
			own = append(own, g.buf[i])
		}
	}
	merged := mergeReplay(replay, own)
	for i := range merged {
		g.raiseLocked(merged[i].Stream, merged[i].Seq)
	}
	if len(merged) > 0 && feed != nil {
		feed(merged)
	}
	dropped = g.overflow
	g.buf, g.overflow = nil, 0
	g.paused, g.restored = false, false
	return len(merged), dropped
}

// mergeReplay unions two pause buffers, deduplicates by (stream, seq) —
// while both entities receive the stream the same tuple can reach the
// source and the destination — and sorts by sequence so the replay
// reconstructs arrival order.
func mergeReplay(a, b stream.Batch) stream.Batch {
	merged := append(append(make(stream.Batch, 0, len(a)+len(b)), a...), b...)
	slices.SortStableFunc(merged, func(x, y stream.Tuple) int {
		return cmp.Or(cmp.Compare(x.Seq, y.Seq), cmp.Compare(x.Stream, y.Stream))
	})
	return slices.CompactFunc(merged, func(x, y stream.Tuple) bool {
		return x.Seq == y.Seq && x.Stream == y.Stream
	})
}

// lookupQuery resolves a placed query and its per-fragment processors.
func (e *Entity) lookupQuery(id string) (*placedQuery, []*procNode, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pq, ok := e.queries[id]
	if !ok {
		return nil, nil, fmt.Errorf("entity %s: unknown query %s", e.id, id)
	}
	procs := make([]*procNode, len(pq.frags))
	for i := range pq.frags {
		procs[i] = e.procs[pq.procs[i]]
	}
	return pq, procs, nil
}

// PrepareQuery places a query with its ingest gate closed: fragments are
// registered and the entity's Interest immediately includes the query
// (so dissemination trees start delivering), but every arriving tuple is
// buffered until ResumeQuery. Where every handoff starts.
func (e *Entity) PrepareQuery(spec engine.QuerySpec, nFrags int) error {
	return e.place(spec, nFrags, true)
}

// Captured is one query's consistent cut.
type Captured struct {
	// State is the operator state by fragment ID; nil when !Stateful.
	State map[string]engine.QueryState
	// Cut is, per source stream, the highest Seq State reflects. A stream
	// the query has seen nothing of is absent.
	Cut   map[string]uint64
	Bytes int
	// Stateful is false (with no Err) when a hosting engine lacks the
	// StateSnapshotter capability: the query moves or recovers from its
	// spec and a replay alone.
	Stateful bool
	Err      error
}

// CaptureQueries takes a consistent cut of each query and leaves its
// gate closed: the caller reopens it in place (ResumeQuery) or detaches
// the query (DetachQuery). All gates close first, so the group shares
// one wait for what they had admitted to reach the engines and for
// in-flight traffic — feeds to remote fragment processors; on a
// reordering transport, stream tuples older than ones already seen — to
// land; then the hosting engines drain, and only then are state and
// marks read: every tuple at or below a mark is in the state, and
// nothing above one is. wait bounds each of those waits.
func (e *Entity) CaptureQueries(ids []string, wait time.Duration) []Captured {
	out := make([]Captured, len(ids))
	pqs := make([]*placedQuery, len(ids))
	procs := make([][]*procNode, len(ids))
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	for i, id := range ids {
		if closed {
			out[i].Err = fmt.Errorf("entity %s: closed", e.id)
		} else if pqs[i], procs[i], out[i].Err = e.lookupQuery(id); out[i].Err == nil {
			pqs[i].gate.pause()
		}
	}
	deadline := time.Now().Add(wait)
	for i, pq := range pqs {
		// An engine cannot drain what it has not been given yet.
		if out[i].Err == nil && !pq.gate.waitFed(deadline) {
			out[i].Err = fmt.Errorf("entity %s: query %s: admitted batches still unfed after %v", e.id, ids[i], wait)
		}
	}
	simnet.Settle(e.transport, wait)
	drained := make(map[*procNode]bool)
	for i, pq := range pqs {
		if out[i].Err != nil {
			continue
		}
		for _, p := range procs[i] {
			if drained[p] {
				continue
			}
			drained[p] = true
			if p.drainer != nil {
				p.drainer.Drain(wait)
			} else {
				time.Sleep(10 * time.Millisecond) // a short grace for an engine that cannot say
			}
		}
		c := &out[i]
		c.State, c.Bytes, c.Stateful, c.Err = snapshot(pq, procs[i])
		c.Cut = pq.gate.cut()
	}
	return out
}

// snapshot serializes a drained query's operator state per fragment.
func snapshot(pq *placedQuery, procs []*procNode) (st map[string]engine.QueryState, bytes int, ok bool, err error) {
	st = make(map[string]engine.QueryState, len(pq.frags))
	for i, frag := range pq.frags {
		if procs[i].state == nil {
			return nil, 0, false, nil
		}
		qs, err := procs[i].state.SnapshotQueryState(frag.ID)
		if err != nil {
			return nil, 0, false, err
		}
		st[frag.ID] = qs
		bytes += qs.Bytes()
	}
	return st, bytes, true, nil
}

// RestoreQuery installs a captured state and its cut into a prepared
// query, fragment by fragment. Fragment IDs are deterministic in the
// spec (SplitSpec), so source and destination placements agree on them.
// The cut is installed only with the state it belongs to.
func (e *Entity) RestoreQuery(id string, st map[string]engine.QueryState, cut map[string]uint64) error {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return err
	}
	for i, frag := range pq.frags {
		qs, has := st[frag.ID]
		if !has {
			continue
		}
		if procs[i].state == nil {
			return fmt.Errorf("entity %s: engine for fragment %s cannot restore state", e.id, frag.ID)
		}
		if err := procs[i].state.RestoreQueryState(frag.ID, qs); err != nil {
			return err
		}
	}
	pq.gate.restore(cut)
	return nil
}

// DetachQuery removes a captured query from this entity — fan-out
// targets first, so nothing new is buffered — and hands back what its
// gate buffered since the capture, for replay at the destination.
func (e *Entity) DetachQuery(id string) (stream.Batch, error) {
	pq, _, err := e.lookupQuery(id)
	if err != nil {
		return nil, err
	}
	if _, err := e.RemoveQuery(id); err != nil {
		return nil, err
	}
	pq.gate.mu.Lock() // nothing feeds the gate any more; it stays closed
	defer pq.gate.mu.Unlock()
	return pq.gate.buf, nil
}

// ResumeQuery opens a closed gate: in place with a nil replay (after a
// checkpoint's capture, or when a handoff aborts), or on a destination
// with what the source handed over. It reports the tuples replayed and
// the ones a full pause buffer had to drop.
func (e *Entity) ResumeQuery(id string, replay stream.Batch) (replayed, dropped int, err error) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, 0, err
	}
	replayed, dropped = pq.gate.open(replay, e.headFeeder(pq, procs))
	return replayed, dropped, nil
}

// headFeeder builds a closure delivering a batch to the query's head
// fragment in bounded chunks, draining the engine between chunks so a
// large replay cannot overflow the fragment's input queue.
func (e *Entity) headFeeder(pq *placedQuery, procs []*procNode) func(stream.Batch) {
	head := pq.frags[0].ID
	p := procs[0]
	return func(b stream.Batch) {
		for len(b) > 0 {
			n := min(len(b), replayChunk)
			_ = p.eng.FeedQueryBatch(head, b[:n])
			if b = b[n:]; len(b) > 0 && p.drainer != nil {
				p.drainer.Drain(time.Second)
			}
		}
	}
}

// QueryStateBytes estimates a placed query's total operator-state size —
// the cost side of the adaptation controller's hysteresis check. ok is
// false when the query is unknown or an engine lacks the capability.
func (e *Entity) QueryStateBytes(id string) (int, bool) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, false
	}
	total := 0
	for i, frag := range pq.frags {
		if procs[i].state == nil {
			return 0, false
		}
		n, has := procs[i].state.QueryStateBytes(frag.ID)
		if !has {
			return 0, false
		}
		total += n
	}
	return total, true
}
