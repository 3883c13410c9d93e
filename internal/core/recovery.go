// Crash recovery (DESIGN.md §12): when an entity is confirmed failed,
// its queries are re-placed on survivors, restored from their newest
// quorum-acked checkpoint, and caught up by replaying the bounded
// post-checkpoint suffix from the upstream replay rings. The placement
// reuses the migration PREPARE choreography — the destination's gate
// opens only after state and replay are staged, and its dissemination
// interests go live before the replay, so the trees overlap rather
// than gap.
//
// Timeline per failed entity (recoverOrphans):
//
//	FETCH    newest surviving record per query, from every live replica
//	ROUTE    each orphan through the coordinator tree (load-aware)
//	PREPARE  paused placements on the targets; interests refreshed; settle
//	RESTORE  operator state + high-water marks from the record
//	REPLAY   ring suffix above the group's min mark, once per stream
//	COMMIT   gates open, replaying buffered + replayed tuples deduped
//	         by (stream, seq) against the restored marks
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"sspd/internal/checkpoint"
	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// recoveryLogCap bounds the in-memory recovery history surfaced at
// GET /cluster.
const recoveryLogCap = 64

// RecoveryRecord is one query's crash-recovery outcome.
type RecoveryRecord struct {
	Query  string `json:"query"`
	Failed string `json:"failed"` // the dead entity
	Target string `json:"target"` // where the query was re-placed
	// Outcome is "restored" (from a checkpoint), "stateless" (no
	// usable checkpoint; rebuilt from the spec alone), or "failed".
	Outcome  string    `json:"outcome"`
	Reason   string    `json:"reason,omitempty"`
	Seq      uint64    `json:"ckpt_seq,omitempty"` // restored checkpoint sequence
	Replayed int       `json:"replayed"`           // tuples replayed into the gate
	Time     time.Time `json:"ts"`
}

// Recoveries returns the crash-recovery history, newest first.
func (f *Federation) Recoveries() []RecoveryRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RecoveryRecord, 0, len(f.recLog))
	for i := len(f.recLog) - 1; i >= 0; i-- {
		out = append(out, f.recLog[i])
	}
	return out
}

func (f *Federation) recordRecovery(rec RecoveryRecord) {
	f.mu.Lock()
	f.recLog = append(f.recLog, rec)
	if len(f.recLog) > recoveryLogCap {
		f.recLog = f.recLog[len(f.recLog)-recoveryLogCap:]
	}
	f.mu.Unlock()
	switch rec.Outcome {
	case "restored":
		f.recRestored.Inc()
	case "stateless":
		f.recStateless.Inc()
	default:
		f.recFailed.Inc()
	}
}

// orphanQuery is one query stranded by an entity failure.
type orphanQuery struct {
	spec     engine.QuerySpec
	onResult func(stream.Tuple)
}

// recoverOrphans is FailEntity's checkpoint-aware re-placement path. It
// returns the number of queries brought back (restored or stateless).
func (f *Federation) recoverOrphans(p *ckptPlane, failedID string, pos simnet.Point,
	orphans []orphanQuery) (int, error) {
	start := time.Now()
	ids := make([]string, 0, len(orphans))
	for _, o := range orphans {
		ids = append(ids, o.spec.ID)
	}
	f.logger.Info("recovery.start", failedID, "crash recovery starting",
		"queries", len(orphans))
	recs := p.fetchRecords(ids, recoveryFetchTimeout)
	delete(recs, LedgerQuery)

	// Route every orphan, then group by target so each destination gets
	// one interest refresh, one settle, and one replay per stream.
	groups := make(map[string][]orphanQuery)
	recovered := 0
	var firstErr error
	for _, o := range orphans {
		_ = f.ledger.Stop(o.spec.ID) // the dead entity's accrual ends
		target, err := f.route(pos)
		if err != nil {
			f.recordRecovery(RecoveryRecord{Query: o.spec.ID, Failed: failedID,
				Outcome: "failed", Reason: "route: " + err.Error(), Time: time.Now()})
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		groups[target] = append(groups[target], o)
	}
	targets := make([]string, 0, len(groups))
	for t := range groups {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, target := range targets {
		n, err := f.recoverGroup(p, failedID, target, groups[target], recs)
		recovered += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.routesChanged()
	f.logger.Info("recovery.done", failedID, "crash recovery finished",
		"queries", len(orphans), "recovered", recovered,
		"elapsed_ms", fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/1000))
	return recovered, firstErr
}

// recoverGroup re-places one target entity's share of the orphans.
func (f *Federation) recoverGroup(p *ckptPlane, failedID, target string,
	orphans []orphanQuery, recs map[string]checkpoint.Record) (int, error) {
	f.mu.Lock()
	en, ok := f.entities[target]
	f.mu.Unlock()
	if !ok {
		for _, o := range orphans {
			f.recordRecovery(RecoveryRecord{Query: o.spec.ID, Failed: failedID,
				Target: target, Outcome: "failed", Reason: "target lost", Time: time.Now()})
		}
		return 0, fmt.Errorf("core: recovery target %q lost", target)
	}

	// PREPARE every query paused, then bring the target's interests
	// live and let the wider net settle once for the whole group.
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].spec.ID < orphans[j].spec.ID })
	prepared := orphans[:0]
	streamSet := make(map[string]bool)
	for _, o := range orphans {
		if err := en.ent.PrepareQuery(o.spec, f.opts.FragmentsPerQuery); err != nil {
			f.recordRecovery(RecoveryRecord{Query: o.spec.ID, Failed: failedID,
				Target: target, Outcome: "failed", Reason: "prepare: " + err.Error(),
				Time: time.Now()})
			continue
		}
		prepared = append(prepared, o)
		for _, s := range o.spec.Streams() {
			streamSet[s] = true
		}
	}
	streams := make([]string, 0, len(streamSet))
	for s := range streamSet {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	if err := f.refreshInterests(target, streams); err != nil {
		return 0, err
	}
	f.Settle(migrateSettle)

	// RESTORE state and marks; compute each stream's replay floor as
	// the minimum restored mark over the group (no record → 0: replay
	// everything the ring holds).
	type pending struct {
		o   orphanQuery
		rec RecoveryRecord
	}
	pendings := make([]pending, 0, len(prepared))
	floors := make(map[string]uint64, len(streams))
	for _, s := range streams {
		floors[s] = ^uint64(0)
	}
	for _, o := range prepared {
		pr := pending{o: o, rec: RecoveryRecord{Query: o.spec.ID, Failed: failedID,
			Target: target, Outcome: "stateless", Time: time.Now()}}
		ck, has := recs[o.spec.ID]
		if has {
			if specJSON, err := json.Marshal(o.spec); err != nil || !bytes.Equal(specJSON, ck.Spec) {
				// The record was written for a different incarnation of
				// this query ID; restoring it would corrupt state.
				f.logger.Warn("recovery.restore", target, "checkpoint spec mismatch; recovering stateless",
					"query", o.spec.ID, "seq", ck.Seq)
				has = false
			}
		}
		if has {
			st := make(map[string]engine.QueryState, len(ck.Frags))
			for _, fr := range ck.Frags {
				qs := make(engine.QueryState, 0, len(fr.Ops))
				for _, op := range fr.Ops {
					qs = append(qs, engine.OperatorState{Name: op.Name, Data: op.Data})
				}
				st[fr.ID] = qs
			}
			if err := en.ent.RestoreQuery(o.spec.ID, st); err != nil {
				f.logger.Warn("recovery.restore", target, "checkpoint restore failed; recovering stateless",
					"query", o.spec.ID, "seq", ck.Seq, "err", err.Error())
			} else {
				_ = en.ent.SetQueryMarks(o.spec.ID, ck.Marks)
				p.bumpSeq(o.spec.ID, ck.Seq)
				pr.rec.Outcome, pr.rec.Seq = "restored", ck.Seq
				f.logger.Info("recovery.restore", target, "query state restored from checkpoint",
					"query", o.spec.ID, "seq", ck.Seq, "failed", failedID)
			}
		}
		for _, s := range o.spec.Streams() {
			m := uint64(0)
			if pr.rec.Outcome == "restored" {
				m = ck.Marks[s]
			}
			if m < floors[s] {
				floors[s] = m
			}
		}
		pendings = append(pendings, pr)
	}

	// REPLAY each stream's ring suffix once into the target; paused
	// gates buffer it, live gates dedup it away against their marks.
	replayed := 0
	for _, s := range streams {
		floor := floors[s]
		if floor == ^uint64(0) {
			continue
		}
		suffix, trimmed := p.ringSince(s, floor)
		if trimmed > floor {
			f.logger.Warn("recovery.restore", target, "replay gap: ring trimmed past restore floor",
				"stream", s, "floor", floor, "trimmed", trimmed)
		}
		if len(suffix) == 0 {
			continue
		}
		en.ent.IngestBatch(suffix)
		replayed += len(suffix)
	}
	f.recReplayFetched.Add(int64(replayed))

	// COMMIT: open the gates; the pause buffers (replay + any tuples
	// that arrived during the handoff) drain through the (stream, seq)
	// dedup filter seeded from the restored marks.
	recovered := 0
	var firstErr error
	for _, pr := range pendings {
		// Wire the result route before the commit: the flush delivers
		// the replayed suffix's results immediately, and an unrouted
		// result is a lost result. The query stays marked migrating until
		// its gate is open, so a checkpoint sweep on the clock cannot
		// pause-and-reopen the staged gate ahead of the commit.
		fq := &fedQuery{spec: pr.o.spec, entity: target, migrating: true}
		f.mu.Lock()
		f.queries[pr.o.spec.ID] = fq
		if pr.o.onResult != nil {
			f.results.Store(pr.o.spec.ID, pr.o.onResult)
		}
		f.mu.Unlock()
		n, dropped, err := en.ent.CommitQuery(pr.o.spec.ID, nil)
		if err != nil {
			f.mu.Lock()
			delete(f.queries, pr.o.spec.ID)
			f.results.Delete(pr.o.spec.ID)
			f.mu.Unlock()
			pr.rec.Outcome, pr.rec.Reason = "failed", "commit: "+err.Error()
			f.recordRecovery(pr.rec)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if dropped > 0 {
			f.logger.Warn("recovery.restore", target, "recovery pause buffer overflowed",
				"query", pr.o.spec.ID, "dropped", dropped)
		}
		f.mu.Lock()
		fq.migrating = false
		f.mu.Unlock()
		pr.rec.Replayed = n
		f.recReplayed.Add(int64(n))
		if err := f.ledger.Start(pr.o.spec.ID, target); err != nil {
			f.logger.Warn("ledger.error", target, "ledger start failed",
				"query", pr.o.spec.ID, "err", err.Error())
		}
		f.recordRecovery(pr.rec)
		recovered++
	}
	return recovered, firstErr
}

// KillEntity simulates a hard crash (kill -9): the entity's relays,
// heartbeat responder, checkpoint replica, and processors stop dead —
// no goodbye, no tree repair, no book-keeping. The failure detector (or
// an explicit FailEntity) discovers the corpse later; until then the
// dissemination trees still route through it. Chaos tests and the
// recovery bench use this to stage real crash windows.
func (f *Federation) KillEntity(id string) error {
	f.mu.Lock()
	en, ok := f.entities[id]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown entity %q", id)
	}
	f.logger.Warn("entity.kill", id, "entity hard-killed (no goodbye)")
	if p := f.ckptRef(); p != nil {
		p.killReplica(id)
	}
	for _, relay := range en.relays {
		if relay != nil {
			_ = relay.Close()
		}
	}
	if en.hb != nil {
		_ = en.hb.Close()
	}
	en.ent.Close()
	return nil
}

// RecoveryReplayFetched reports the total tuples fetched from the
// replay rings during recoveries (the numerator of the bench's replay
// amplification gate).
func (f *Federation) RecoveryReplayFetched() int64 { return f.recReplayFetched.Value() }

// EntityFailErrors reports detector-confirmed expulsions whose
// FailEntity call failed (satellite: no silently dropped errors).
func (f *Federation) EntityFailErrors() int64 { return f.entityFailErrors.Value() }

// expelConfirmed runs a detector-confirmed expulsion and accounts for
// its outcome — the async confirm callback must never drop an error on
// the floor.
func (f *Federation) expelConfirmed(id string) {
	if _, err := f.FailEntity(id); err != nil {
		f.entityFailErrors.Inc()
		f.logger.Error("detector.expel_failed", id, "confirmed-failure expulsion failed",
			"err", err.Error())
	}
}
