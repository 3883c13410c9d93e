// Live-migration primitives: the entity-level half of the
// pause→drain→snapshot→transfer→resume protocol (DESIGN.md §10).
//
// Pausing a query closes an ingest gate at the delegation fan-out: head
// fragment input is buffered instead of delivered, so no tuple is lost
// while the query's operator state is in transit. The destination places
// the same spec in paused mode (PrepareQuery), restores the snapshot,
// and CommitQuery replays the union of the source's and destination's
// pause buffers — deduplicated by (stream, seq) and replayed in seq
// order — before reopening the gate.
package entity

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/engine"
	"sspd/internal/stream"
)

// maxPauseBuffer bounds the tuples a paused query will hold; overflow is
// dropped and counted, mirroring the engine's bounded-queue policy.
const maxPauseBuffer = 1 << 16

// replayChunk bounds how many buffered tuples are fed between engine
// drains on resume, so replay cannot overflow a shard's ring.
const replayChunk = 512

// ingestGate sits between the delegation fan-out and a query's head
// fragment. While paused it buffers batches instead of delivering them.
// With dedup on (checkpointing federations) it also tracks per-stream
// high-water marks and drops tuples at or below them, so a bounded
// upstream replay after recovery is idempotent: tuples already
// reflected in the restored checkpoint state are filtered here.
type ingestGate struct {
	mu       sync.Mutex
	paused   bool
	buf      stream.Batch
	overflow int
	// dedup enables mark tracking + stale-tuple filtering. Opt-in: it
	// assumes per-stream monotone delivery, which only checkpointing
	// federations (no reorder faults on the tuple path) guarantee.
	dedup bool
	marks map[string]uint64
	stale int64
	// unfed counts the batches admit let through that the fan-out has
	// not handed to an engine (or sent to its processor) yet. admit counts
	// under mu, so once pause returns it only falls; DrainQuery waits for
	// zero: such a batch is in neither the engine nor the pause buffer.
	unfed atomic.Int32
}

// admit returns the sub-batch the caller should deliver: the input
// unchanged on the open fast path, a filtered copy when dedup dropped
// stale tuples, or nil when the gate consumed everything (paused, or
// fully stale). Every non-empty return is counted in unfed until the
// caller has handed the sub-batch over.
func (g *ingestGate) admit(b stream.Batch) (out stream.Batch) {
	g.mu.Lock()
	defer func() {
		if len(out) > 0 {
			g.unfed.Add(1)
		}
		g.mu.Unlock()
	}()
	if g.paused {
		room := maxPauseBuffer - len(g.buf)
		if room <= 0 {
			g.overflow += len(b)
			return nil
		}
		if len(b) > room {
			g.overflow += len(b) - room
			b = b[:room]
		}
		g.buf = append(g.buf, b...)
		return nil
	}
	if !g.dedup {
		return b
	}
	return g.filterLocked(b)
}

// filterLocked drops tuples at or below their stream's mark and
// advances the marks past the admitted ones. The no-stale common case
// returns the input batch without allocating.
func (g *ingestGate) filterLocked(b stream.Batch) stream.Batch {
	stale := 0
	for _, t := range b {
		if t.Seq <= g.marks[t.Stream] {
			stale++
		}
	}
	if stale == 0 {
		for _, t := range b {
			g.markLocked(t.Stream, t.Seq)
		}
		return b
	}
	g.stale += int64(stale)
	if stale == len(b) {
		return nil
	}
	out := make(stream.Batch, 0, len(b)-stale)
	for _, t := range b {
		if t.Seq <= g.marks[t.Stream] {
			continue
		}
		g.markLocked(t.Stream, t.Seq)
		out = append(out, t)
	}
	return out
}

func (g *ingestGate) markLocked(streamName string, seq uint64) {
	if g.marks == nil {
		g.marks = make(map[string]uint64, 2)
	}
	if seq > g.marks[streamName] {
		g.marks[streamName] = seq
	}
}

func (g *ingestGate) setDedup(on bool) {
	g.mu.Lock()
	g.dedup = on
	g.mu.Unlock()
}

// setMarks replaces the gate's high-water marks — recovery installs the
// restored checkpoint's marks here so the post-checkpoint replay dedups
// against the restored state.
func (g *ingestGate) setMarks(marks map[string]uint64) {
	g.mu.Lock()
	g.marks = make(map[string]uint64, len(marks))
	for s, seq := range marks {
		g.marks[s] = seq
	}
	g.mu.Unlock()
}

// marksCopy snapshots the current high-water marks.
func (g *ingestGate) marksCopy() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.marks))
	for s, seq := range g.marks {
		out[s] = seq
	}
	return out
}

func (g *ingestGate) staleCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stale
}

func (g *ingestGate) pause() {
	g.mu.Lock()
	g.paused = true
	g.mu.Unlock()
}

// take removes and returns the buffered tuples, leaving the gate paused.
func (g *ingestGate) take() (stream.Batch, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	buf, overflow := g.buf, g.overflow
	g.buf, g.overflow = nil, 0
	return buf, overflow
}

// open replays prepend + the gate's own buffer through feed and unpauses
// — atomically, so a live batch arriving during the replay cannot
// overtake it (admit blocks on the gate mutex until the gate is
// open; the feed path never re-enters the gate). With dedup on, the
// merged replay is additionally filtered by the high-water marks, so a
// recovery replay feeds only tuples newer than the restored checkpoint.
func (g *ingestGate) open(prepend stream.Batch, feed func(stream.Batch)) (replayed, dropped int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	merged := mergeReplay(prepend, g.buf)
	if g.dedup {
		merged = g.filterLocked(merged)
	}
	if len(merged) > 0 && feed != nil {
		feed(merged)
	}
	dropped = g.overflow
	g.buf, g.overflow = nil, 0
	g.paused = false
	return len(merged), dropped
}

// mergeReplay unions two pause buffers, deduplicates by (stream, seq) —
// during the interest-overlap window the same tuple can reach both the
// source and the destination — and sorts by sequence so the replay
// reconstructs arrival order.
func mergeReplay(a, b stream.Batch) stream.Batch {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	type key struct {
		stream string
		seq    uint64
	}
	seen := make(map[key]struct{}, len(a)+len(b))
	merged := make(stream.Batch, 0, len(a)+len(b))
	for _, src := range []stream.Batch{a, b} {
		for _, t := range src {
			k := key{t.Stream, t.Seq}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			merged = append(merged, t)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	return merged
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
// buffered until CommitQuery. The destination half of live migration.
func (e *Entity) PrepareQuery(spec engine.QuerySpec, nFrags int) error {
	return e.place(spec, nFrags, true)
}

// PauseQuery closes a placed query's ingest gate; head-fragment input is
// buffered from this point on. Idempotent.
func (e *Entity) PauseQuery(id string) error {
	pq, _, err := e.lookupQuery(id)
	if err != nil {
		return err
	}
	pq.gate.pause()
	return nil
}

// ResumeQuery reopens a paused query's gate in place, replaying its own
// buffered tuples first — the rollback path when a migration aborts.
// It reports how many tuples were replayed.
func (e *Entity) ResumeQuery(id string) (int, error) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, err
	}
	replayed, _ := pq.gate.open(nil, e.headFeeder(pq, procs))
	return replayed, nil
}

// CommitQuery reopens a prepared query's gate, replaying the source's
// pause buffer merged with the destination's own — the final step of a
// migration. It reports replayed and overflow-dropped counts.
func (e *Entity) CommitQuery(id string, fromSource stream.Batch) (replayed, dropped int, err error) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, 0, err
	}
	replayed, dropped = pq.gate.open(fromSource, e.headFeeder(pq, procs))
	return replayed, dropped, nil
}

// CompleteMigration detaches a paused query from this entity: the query
// is removed (fan-out targets first, so nothing new is buffered) and the
// pause buffer is handed back for replay at the destination.
func (e *Entity) CompleteMigration(id string) (engine.QuerySpec, stream.Batch, error) {
	pq, _, err := e.lookupQuery(id)
	if err != nil {
		return engine.QuerySpec{}, nil, err
	}
	spec, err := e.RemoveQuery(id)
	if err != nil {
		return engine.QuerySpec{}, nil, err
	}
	buf, _ := pq.gate.take()
	return spec, buf, nil
}

// headFeeder builds a closure delivering a batch to the query's head
// fragment in bounded chunks, draining the engine between chunks so a
// large replay cannot overflow the fragment's input queue.
func (e *Entity) headFeeder(pq *placedQuery, procs []*procNode) func(stream.Batch) {
	head := pq.frags[0].ID
	p := procs[0]
	return func(b stream.Batch) {
		for len(b) > 0 {
			n := replayChunk
			if len(b) < n {
				n = len(b)
			}
			chunk := b[:n]
			b = b[n:]
			_ = p.eng.FeedQueryBatch(head, chunk)
			if len(b) > 0 && p.drainer != nil {
				p.drainer.Drain(time.Second)
			}
		}
	}
}

// DrainQuery waits until the query's hosting engines go idle, so a
// snapshot taken afterwards includes every tuple delivered before the
// pause. Engines without a Drain degrade to a short grace sleep.
func (e *Entity) DrainQuery(id string, timeout time.Duration) error {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return err
	}
	// An engine cannot drain what it has not been given yet.
	for deadline := time.Now().Add(timeout); pq.gate.unfed.Load() > 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("entity %s: query %s: admitted batches still unfed after %v", e.id, id, timeout)
		}
	}
	drained := false
	for _, p := range procs {
		if p.drainer != nil {
			p.drainer.Drain(timeout)
			drained = true
		}
	}
	if !drained {
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// SnapshotQuery serializes a paused query's operator state per fragment.
// ok is false (with no error) when a hosting engine lacks the
// StateSnapshotter capability — the caller degrades to a stateless
// (buffer-replay-only) migration.
func (e *Entity) SnapshotQuery(id string) (st map[string]engine.QueryState, bytes int, ok bool, err error) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return nil, 0, false, err
	}
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

// RestoreQuery installs a snapshot into a prepared query, fragment by
// fragment. Fragment IDs are deterministic in the spec (SplitSpec), so
// source and destination placements agree on them.
func (e *Entity) RestoreQuery(id string, st map[string]engine.QueryState) error {
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
	return nil
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
