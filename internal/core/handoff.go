// The handoff (DESIGN.md §10 "Handoff"): the one way a query's
// execution moves to another entity. A live migration, a leave, a
// rebalance, an adaptation round and a crash recovery differ only in
// where each query's state comes from — a live source, the newest
// surviving checkpoint of a dead one, or nowhere — and all run the same
// five steps on a group of queries bound for one target:
//
// (1) PREPARE — place every spec on the target with its ingest gate
// closed, refresh the target's interests once and let the registrations
// settle once. Nothing is paused yet: sources keep processing, the
// target buffers, and step 5's cut sorts out the overlap.
// (2) CAPTURE — read each query's state and cut, the per-stream
// high-water of what that state reflects. A live source closes its
// gates, drains and snapshots (one settle per source, inside the pause)
// and keeps buffering; a checkpoint record is a capture written down
// earlier; no source means no state and no cut.
// (3) RESTORE — install state and cut on the target.
// (4) REPLAY — collect what each state has not seen: a live source is
// detached and hands over its pause buffer; a dead one's queries get
// the upstream replay ring's tail above their cut, the ring read once
// per stream for the whole group.
// (5) COMMIT — open each target gate. It feeds the replay united by
// (stream, seq) with its own buffer, less what the cut covers; then the
// books move, and a live source's interests are withdrawn.
//
// Why the cut filters the target's buffer and not the replay: the
// target buffers from PREPARE on while a live source processes until its
// capture, so a tuple can be in the state and in the target's buffer —
// the source's high-water tells them apart. A live source's pause buffer
// is by construction exactly what arrived after its state was fixed, in
// any order, so under a reordering transport it may hold tuples below
// the high-water that the state has not seen: it is replayed whole.
//
// Any failure before step 4 takes that query out of the group: a live
// source's gate reopens in place with its buffer replayed, the prepared
// placement is removed, and the query keeps running where it was.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"sspd/internal/checkpoint"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/stream"
)

// handoffSettle bounds each wait of a handoff: the interest settle after
// PREPARE and, handed to the capture, the waits inside a live source's
// pause. On SimNet-class transports a settle returns as soon as the
// network is quiet.
const handoffSettle = 2 * time.Second

// handoffItem is one query of a handoff. Its state comes from `from`, a
// live entity; failing that from record, the newest checkpoint of a
// query whose entity `lost` died; failing that from nowhere. A query
// with a live source is on the books (fq) throughout; one without left
// them when its entity was expelled — its result route stays wired — and
// re-enters them at commit.
type handoffItem struct {
	spec   engine.QuerySpec
	from   *entityNode
	record *checkpoint.Record
	lost   string
	fq     *fedQuery

	cap      entity.Captured
	replay   stream.Batch
	paused   time.Time // when the live source's gate closed
	restored bool      // the state installed came from record
}

// handoff runs the protocol for items bound for one target and returns
// how many committed. A failed item is recorded and dropped; the rest
// carry on.
func (f *Federation) handoff(target string, items []*handoffItem) (int, error) {
	to, _ := f.entity(target)
	p := f.ckptRef()
	var firstErr error
	abandoned := false
	// each runs one step over the items still in the handoff. An item the
	// step fails is out: its live source resumes in place, the placement
	// the handoff prepared for it goes, and the books record why.
	each := func(step string, prepared bool, fn func(*handoffItem) error) {
		kept := items[:0]
		for _, it := range items {
			err := fn(it)
			if err == nil {
				kept = append(kept, it)
				continue
			}
			// Best effort both: the step's own error is the one reported.
			replayed := 0
			if !it.paused.IsZero() {
				replayed, _, _ = it.from.ent.ResumeQuery(it.spec.ID, nil)
			}
			if prepared {
				_, _ = to.ent.RemoveQuery(it.spec.ID)
				abandoned = true
			}
			f.recordHandoff(target, it, replayed, step+": "+err.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("core: handoff of %s to %s: %s: %w", it.spec.ID, target, step, err)
			}
		}
		items = kept
	}

	// 1. PREPARE.
	sort.Slice(items, func(i, j int) bool { return items[i].spec.ID < items[j].spec.ID })
	each("prepare", false, func(it *handoffItem) error {
		if to == nil {
			return fmt.Errorf("unknown entity %q", target)
		}
		return to.ent.PrepareQuery(it.spec, f.opts.FragmentsPerQuery)
	})
	if len(items) == 0 {
		return 0, firstErr
	}
	bySource := make(map[string][]*handoffItem) // live source -> its items
	for _, it := range items {
		if it.from != nil {
			bySource[it.from.id] = append(bySource[it.from.id], it)
		}
	}
	streams := slices.Sorted(maps.Keys(readersOf(items, false)))
	if err := f.refreshInterests(target, streams); err != nil {
		each("destination interests", true, func(*handoffItem) error { return err })
		return 0, firstErr
	}
	f.Settle(handoffSettle)

	// 2. CAPTURE: one call per live source, so its queries share a pause.
	for _, src := range slices.Sorted(maps.Keys(bySource)) {
		group := bySource[src]
		ids := make([]string, len(group))
		for i, it := range group {
			ids[i] = it.spec.ID
		}
		paused := time.Now()
		for i, c := range group[0].from.ent.CaptureQueries(ids, handoffSettle) {
			group[i].cap, group[i].paused = c, paused
		}
	}
	each("capture", true, func(it *handoffItem) error {
		switch {
		case it.from == nil || it.cap.Err != nil:
		case it.cap.Stateful:
			f.logger.Info("migration.snapshot", it.from.id, "operator state captured",
				"query", it.spec.ID, "state_bytes", fmt.Sprint(it.cap.Bytes))
		default:
			f.logger.Warn("migration.snapshot", it.from.id,
				"engine cannot snapshot; migrating without operator state", "query", it.spec.ID)
		}
		return it.cap.Err
	})

	// 3. RESTORE. A record that does not fit the spec or will not restore
	// degrades to a stateless recovery; a live state that will not
	// restore sends the query back.
	each("restore", true, func(it *handoffItem) error {
		if it.record != nil {
			it.cap = decodeRecord(it.spec, it.record)
		}
		err := it.cap.Err
		if err == nil {
			err = to.ent.RestoreQuery(it.spec.ID, it.cap.State, it.cap.Cut)
		}
		switch {
		case it.record == nil:
			return err
		case err != nil:
			f.logger.Warn("recovery.restore", target, "checkpoint unusable; recovering stateless",
				"query", it.spec.ID, "seq", it.record.Seq, "err", err.Error())
			it.cap = entity.Captured{}
		default:
			it.restored = true
			p.bumpSeq(it.spec.ID, it.record.Seq)
			f.logger.Info("recovery.restore", target, "query state restored from checkpoint",
				"query", it.spec.ID, "seq", it.record.Seq, "failed", it.lost)
		}
		return nil
	})

	// 4. REPLAY. A live source is detached and hands over its pause
	// buffer: from here it is gone from its entity. An item without one
	// gets the replay ring's tail above its own cut, each stream's ring
	// read once for the group, from its lowest cut — from the ring's
	// start when some item has none.
	each("detach", true, func(it *handoffItem) (err error) {
		if it.from != nil {
			it.replay, err = it.from.ent.DetachQuery(it.spec.ID)
		}
		return err
	})
	orphans := readersOf(items, true)
	for _, s := range slices.Sorted(maps.Keys(orphans)) {
		if p == nil {
			break
		}
		lowest, all := ^uint64(0), true
		for _, it := range orphans[s] {
			seq, has := it.cap.Cut[s] // no cut reads as 0 here: the ring from its start
			lowest, all = min(lowest, seq), all && has
		}
		tail, trimmed := p.ringSince(s, lowest, all)
		if trimmed > lowest {
			f.logger.Warn("recovery.restore", target, "replay gap: ring trimmed past restore floor",
				"stream", s, "floor", lowest, "trimmed", trimmed)
		}
		f.recReplayFetched.Add(int64(len(tail)))
		for _, it := range orphans[s] {
			above := 0
			if seq, has := it.cap.Cut[s]; has {
				above = sort.Search(len(tail), func(i int) bool { return tail[i].Seq > seq })
			}
			it.replay = append(it.replay, tail[above:]...)
		}
	}

	// 5. COMMIT. The result route is wired before the open — a recovered
	// query's was never taken down: the flush delivers the replay's
	// results at once, and an unrouted result is a lost result. And no
	// checkpoint sweep on the clock can pause-and-reopen the staged gate
	// ahead of the commit: a live source's query is marked migrating by
	// the caller, a recovered one is not on the books until its gate is
	// open.
	each("commit", true, func(it *handoffItem) error {
		// Only an ID the handoff did not prepare can fail here.
		replayed, dropped, err := to.ent.ResumeQuery(it.spec.ID, it.replay)
		if err != nil {
			return err
		}
		if dropped > 0 {
			f.logger.Warn("migration.commit", target, "pause buffer overflowed",
				"query", it.spec.ID, "dropped", fmt.Sprint(dropped))
		}
		ledger := f.ledger.Move
		f.mu.Lock()
		if it.fq == nil {
			it.fq, ledger = &fedQuery{spec: it.spec}, f.ledger.Start
			f.queries[it.spec.ID] = it.fq
		}
		it.fq.entity = target
		f.mu.Unlock()
		if err := ledger(it.spec.ID, target); err != nil {
			f.logger.Warn("ledger.error", target, "ledger update failed",
				"query", it.spec.ID, "err", err.Error())
		}
		f.recordHandoff(target, it, replayed, "")
		return nil
	})
	if len(items) > 0 {
		f.routesChanged()
	}
	// Withdraw what no longer applies: the sources' interests in the
	// queries that left, the target's in the ones that never arrived.
	for src := range bySource {
		if err := f.refreshInterests(src, streams); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if abandoned {
		_ = f.refreshInterests(target, streams) // too wide an interest costs traffic, not results
	}
	return len(items), firstErr
}

// readersOf indexes items by the streams they read — only the items
// without a live source when orphans is set.
func readersOf(items []*handoffItem, orphans bool) map[string][]*handoffItem {
	readers := make(map[string][]*handoffItem)
	for _, it := range items {
		for _, s := range it.spec.Streams() {
			if it.from == nil || !orphans {
				readers[s] = append(readers[s], it)
			}
		}
	}
	return readers
}

// decodeRecord turns a checkpoint record back into the capture it was
// made from. A record written for a different incarnation of the query
// ID would corrupt state: the capture then carries an error.
func decodeRecord(spec engine.QuerySpec, ck *checkpoint.Record) entity.Captured {
	if specJSON, err := json.Marshal(spec); err != nil || !bytes.Equal(specJSON, ck.Spec) {
		return entity.Captured{Err: fmt.Errorf("checkpoint spec mismatch")}
	}
	st := make(map[string]engine.QueryState, len(ck.Frags))
	for _, fr := range ck.Frags {
		for _, op := range fr.Ops {
			st[fr.ID] = append(st[fr.ID], engine.OperatorState{Name: op.Name, Data: op.Data})
		}
	}
	return entity.Captured{State: st, Cut: ck.Marks, Stateful: true}
}

// history is the bounded in-memory log of handoff outcomes surfaced at
// GET /cluster: migrations in one, recoveries in another.
type history[T any] []T

const historyCap = 64

func (h *history[T]) add(rec T) {
	if *h = append(*h, rec); len(*h) > historyCap {
		*h = (*h)[len(*h)-historyCap:]
	}
}

func (h history[T]) newestFirst() []T {
	out := append([]T{}, h...) // never nil: the JSON is [] when empty
	slices.Reverse(out)
	return out
}

// recordHandoff puts one item's outcome on the books: a migration record
// for a live source, a recovery record for a dead one. An empty reason
// is a commit.
func (f *Federation) recordHandoff(target string, it *handoffItem, replayed int, reason string) {
	if it.from != nil {
		rec := MigrationRecord{Query: it.spec.ID, From: it.from.id, To: target,
			Outcome: "commit", Reason: reason, Stateful: it.cap.Stateful,
			StateBytes: it.cap.Bytes, Replayed: replayed, Time: time.Now()}
		if reason != "" {
			rec.Outcome = "rollback"
		}
		if !it.paused.IsZero() {
			rec.PauseMs = float64(time.Since(it.paused).Microseconds()) / 1000
		}
		f.recordMigration(rec)
		return
	}
	rec := RecoveryRecord{Query: it.spec.ID, Failed: it.lost, Target: target,
		Outcome: "stateless", Reason: reason, Replayed: replayed, Time: time.Now()}
	switch {
	case reason != "":
		rec.Outcome = "failed"
		f.results.Delete(it.spec.ID) // nothing will answer this route now
	case it.restored:
		rec.Outcome, rec.Seq = "restored", it.record.Seq
	default:
		f.logger.Info("migration.place", target, "orphaned query re-placed from its spec",
			"query", it.spec.ID, "failed", it.lost)
	}
	f.recReplayed.Add(int64(replayed))
	f.recordRecovery(rec)
}
