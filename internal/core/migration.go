// Live stateful query migration (DESIGN.md §10): the
// pause→drain→snapshot→transfer→resume protocol behind
// Federation.MigrateQuery, and the migration history/metrics it feeds.
//
// Protocol order, and why it is safe:
//
// (1) PREPARE — place the spec on the destination with its ingest gate
// closed. Failure here leaves the source untouched.
// (2) PAUSE — close the source's gate; from now on every tuple the
// source receives is buffered, not processed.
// (3) DRAIN — settle the network and drain the source's engines, so the
// snapshot reflects every tuple processed before the pause and nothing
// processed afterwards.
// (4) OVERLAP — refresh the destination's interests. Both entities now
// receive the stream; the source's interest is withdrawn only at the
// very end, so the dissemination trees overlap rather than gap and no
// tuple is filtered away upstream mid-handoff.
// (5) SNAPSHOT — serialize the source's operator state (windows,
// aggregates, join synopses, learned selectivities).
// (6) RESTORE — install the snapshot at the destination.
// (7) COMMIT — detach the source (reclaiming its pause buffer) and
// reopen the destination's gate, replaying the union of both pause
// buffers deduplicated by (stream, seq).
// (8) WITHDRAW — refresh the source's interests (the query is gone from
// its books, so this narrows them).
//
// Any failure before COMMIT rolls back: the destination placement is
// removed, its interests withdrawn, and the source's gate reopened with
// its buffer replayed in place — the query keeps running on the source
// with no tuple lost.
package core

import (
	"fmt"
	"time"

	"sspd/internal/engine"
	"sspd/internal/stream"
)

// migrationLogCap bounds the in-memory migration history surfaced at
// GET /cluster.
const migrationLogCap = 64

// migrateSettle bounds each network-quiescence wait inside the
// protocol; on SimNet-class transports Settle returns as soon as the
// network is quiet.
const migrateSettle = 2 * time.Second

// migrateDrain bounds the engine drain before a snapshot.
const migrateDrain = 2 * time.Second

// MigrationRecord is one completed (or rolled-back) live migration.
type MigrationRecord struct {
	Query      string    `json:"query"`
	From       string    `json:"from"`
	To         string    `json:"to"`
	Outcome    string    `json:"outcome"` // "commit" or "rollback"
	Reason     string    `json:"reason,omitempty"`
	Stateful   bool      `json:"stateful"`
	StateBytes int       `json:"state_bytes"`
	Replayed   int       `json:"replayed"`
	PauseMs    float64   `json:"pause_ms"`
	Time       time.Time `json:"ts"`
}

// Migrations returns the migration history, newest first.
func (f *Federation) Migrations() []MigrationRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]MigrationRecord, 0, len(f.migLog))
	for i := len(f.migLog) - 1; i >= 0; i-- {
		out = append(out, f.migLog[i])
	}
	return out
}

func (f *Federation) recordMigration(rec MigrationRecord) {
	f.mu.Lock()
	f.migLog = append(f.migLog, rec)
	if len(f.migLog) > migrationLogCap {
		f.migLog = f.migLog[len(f.migLog)-migrationLogCap:]
	}
	f.mu.Unlock()
	switch rec.Outcome {
	case "commit":
		f.migCommits.Inc()
		f.migStateBytes.Add(int64(rec.StateBytes))
		f.migReplayed.Add(int64(rec.Replayed))
		f.logger.Info("migration.commit", rec.To, "live migration committed",
			"query", rec.Query, "from", rec.From, "to", rec.To,
			"state_bytes", fmt.Sprint(rec.StateBytes),
			"replayed", fmt.Sprint(rec.Replayed),
			"pause_ms", fmt.Sprintf("%.2f", rec.PauseMs))
	default:
		f.migRollbacks.Inc()
		f.logger.Warn("migration.rollback", rec.From, "live migration rolled back",
			"query", rec.Query, "from", rec.From, "to", rec.To, "reason", rec.Reason)
	}
}

// MigrateQuery moves a query to another entity at the query level — the
// only migration granularity the loosely-coupled layer permits — via
// the live pause→drain→snapshot→transfer→resume protocol. Operator
// state travels with the query; tuples arriving during the handoff are
// buffered on both sides and replayed exactly once. A failure at any
// step before commit leaves the query running on the source.
func (f *Federation) MigrateQuery(id, toEntity string) error {
	f.mu.Lock()
	fq, ok := f.queries[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("core: unknown query %s", id)
	}
	if fq.entity == toEntity {
		f.mu.Unlock()
		return nil
	}
	from := f.entities[fq.entity]
	to, ok := f.entities[toEntity]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("core: unknown entity %q", toEntity)
	}
	if fq.migrating {
		f.mu.Unlock()
		return fmt.Errorf("core: query %s is already migrating", id)
	}
	fq.migrating = true
	fromID := fq.entity
	spec := fq.spec
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		fq.migrating = false
		f.mu.Unlock()
	}()

	rec := MigrationRecord{Query: id, From: fromID, To: toEntity, Time: time.Now()}
	f.logger.Info("migration.start", fromID, "live migration starting",
		"query", id, "from", fromID, "to", toEntity)

	// 1. PREPARE: paused placement on the destination.
	if err := to.ent.PrepareQuery(spec, f.opts.FragmentsPerQuery); err != nil {
		rec.Outcome, rec.Reason = "rollback", "prepare: "+err.Error()
		f.recordMigration(rec)
		return fmt.Errorf("core: migrate %s: destination placement: %w", id, err)
	}

	// 2. PAUSE the source, 3. DRAIN engines and in-flight traffic.
	pauseStart := time.Now()
	rollback := func(reason string, err error) error {
		_, _ = to.ent.RemoveQuery(id)
		_ = f.refreshInterests(toEntity, spec.Streams())
		if n, rerr := from.ent.ResumeQuery(id); rerr == nil {
			rec.Replayed = n
		}
		rec.Outcome, rec.Reason = "rollback", reason+": "+err.Error()
		rec.PauseMs = float64(time.Since(pauseStart).Microseconds()) / 1000
		f.recordMigration(rec)
		return fmt.Errorf("core: migrate %s: %s: %w", id, reason, err)
	}
	if err := from.ent.PauseQuery(id); err != nil {
		_, _ = to.ent.RemoveQuery(id)
		rec.Outcome, rec.Reason = "rollback", "pause: "+err.Error()
		f.recordMigration(rec)
		return fmt.Errorf("core: migrate %s: pause: %w", id, err)
	}
	f.Settle(migrateSettle)
	if err := from.ent.DrainQuery(id, migrateDrain); err != nil {
		return rollback("drain", err)
	}

	// 4. OVERLAP: the destination's interests go live while the
	// source's stay registered; both sides buffer from here on.
	if err := f.refreshInterests(toEntity, spec.Streams()); err != nil {
		return rollback("destination interests", err)
	}
	f.Settle(migrateSettle)

	// 5. SNAPSHOT the quiesced source state.
	st, stateBytes, stateful, err := from.ent.SnapshotQuery(id)
	if err != nil {
		return rollback("snapshot", err)
	}
	rec.Stateful, rec.StateBytes = stateful, stateBytes
	if stateful {
		f.logger.Info("migration.snapshot", fromID, "operator state captured",
			"query", id, "state_bytes", fmt.Sprint(stateBytes))
		// 6. RESTORE it at the destination.
		if err := to.ent.RestoreQuery(id, st); err != nil {
			return rollback("restore", err)
		}
	} else {
		f.logger.Warn("migration.snapshot", fromID,
			"engine cannot snapshot; migrating without operator state", "query", id)
	}

	// 7. COMMIT: detach the source and replay both pause buffers at
	// the destination.
	_, buffered, err := from.ent.CompleteMigration(id)
	if err != nil {
		return rollback("detach", err)
	}
	replayed, dropped, err := to.ent.CommitQuery(id, buffered)
	if err != nil {
		// The source is already detached; fall back to re-placing
		// there so the query survives even this (unreachable in
		// practice) failure.
		return f.replaceOnSource(rec, fromID, spec, st, stateful, buffered, pauseStart, err)
	}
	rec.Replayed = replayed
	rec.PauseMs = float64(time.Since(pauseStart).Microseconds()) / 1000
	if dropped > 0 {
		f.logger.Warn("migration.commit", toEntity, "pause buffer overflowed",
			"query", id, "dropped", fmt.Sprint(dropped))
	}
	f.mu.Lock()
	fq.entity = toEntity
	f.mu.Unlock()
	f.routesChanged()
	if err := f.ledger.Move(id, toEntity); err != nil {
		f.logger.Warn("ledger.error", toEntity, "ledger move failed",
			"query", id, "err", err.Error())
	}
	rec.Outcome = "commit"
	f.recordMigration(rec)

	// 8. WITHDRAW the source's now-stale interests.
	return f.refreshInterests(fromID, spec.Streams())
}

// replaceOnSource is the last-ditch rollback after the source has
// already been detached: re-place the query on the source, restore the
// snapshot, and replay the buffer there.
func (f *Federation) replaceOnSource(rec MigrationRecord, fromID string,
	spec engine.QuerySpec, st map[string]engine.QueryState, stateful bool,
	buffered stream.Batch, pauseStart time.Time, cause error) error {
	f.mu.Lock()
	from, ok := f.entities[fromID]
	to := f.entities[rec.To]
	f.mu.Unlock()
	if ok {
		if err := from.ent.PrepareQuery(spec, f.opts.FragmentsPerQuery); err == nil {
			if stateful {
				_ = from.ent.RestoreQuery(rec.Query, st)
			}
			if n, _, err := from.ent.CommitQuery(rec.Query, buffered); err == nil {
				rec.Replayed = n
			}
		}
	}
	if to != nil {
		_, _ = to.ent.RemoveQuery(rec.Query)
	}
	_ = f.refreshInterests(rec.To, spec.Streams())
	rec.Outcome, rec.Reason = "rollback", "commit: "+cause.Error()
	rec.PauseMs = float64(time.Since(pauseStart).Microseconds()) / 1000
	f.recordMigration(rec)
	return fmt.Errorf("core: migrate %s: commit: %w", rec.Query, cause)
}
