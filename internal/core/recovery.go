// Crash recovery (DESIGN.md §12): FailEntity hands a dead entity's
// queries to survivors by the same handoff a migration runs (handoff.go,
// DESIGN.md §10 "Handoff"), their state coming from their newest
// quorum-acked checkpoint and their replay from the upstream rings'
// tails above its cut — or, in a federation without the checkpoint
// plane, from the spec alone. This file holds the recovery history and
// metrics, and KillEntity, which stages the crash.
package core

import "time"

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
	return f.recLog.newestFirst()
}

func (f *Federation) recordRecovery(rec RecoveryRecord) {
	f.mu.Lock()
	f.recLog.add(rec)
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

// KillEntity simulates a hard crash (kill -9): the entity's relays,
// heartbeat responder, checkpoint replica, and processors stop dead —
// no goodbye, no tree repair, no book-keeping. The failure detector (or
// an explicit FailEntity) discovers the corpse later; until then the
// dissemination trees still route through it. Chaos tests and
// examples/churn use this to stage real crash windows.
func (f *Federation) KillEntity(id string) error {
	en, err := f.entity(id)
	if err != nil {
		return err
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
