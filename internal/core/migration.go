// Live migration: Federation.MigrateQuery and the plan executor
// Rebalance, LeaveEntity and the adaptation controller share, plus the
// migration history and metrics they feed. A migration is a handoff whose source
// is alive (handoff.go, DESIGN.md §10 "Handoff"): the source's gate
// closes, its state is captured and installed on the destination, and
// what either side buffered meanwhile is replayed there exactly once. A
// failure before the source is detached leaves the query running on it.
package core

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

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
	return f.migLog.newestFirst()
}

func (f *Federation) recordMigration(rec MigrationRecord) {
	f.mu.Lock()
	f.migLog.add(rec)
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
// only migration granularity the loosely-coupled layer permits — by a
// live handoff. Operator state travels with the query; tuples arriving
// meanwhile are buffered and replayed exactly once. A failure before
// the source is detached leaves the query running on it.
func (f *Federation) MigrateQuery(id, toEntity string) error {
	_, err := f.migrate(toEntity, []string{id})
	return err
}

// migrate moves the named queries to one entity in a single handoff, so
// the group pays the interest settle once and each source pauses once.
// A query already there is skipped. It returns how many moved.
func (f *Federation) migrate(toEntity string, ids []string) (int, error) {
	f.captureMu.Lock()
	defer f.captureMu.Unlock()
	var firstErr error
	items := make([]*handoffItem, 0, len(ids))
	held := make([]*fedQuery, 0, len(ids))
	f.mu.Lock()
	for _, id := range ids {
		fq, ok := f.queries[id]
		switch {
		case !ok:
			firstErr = fmt.Errorf("core: unknown query %s", id)
		case fq.entity == toEntity:
		case f.entities[toEntity] == nil:
			firstErr = fmt.Errorf("core: unknown entity %q", toEntity)
		case fq.migrating:
			firstErr = fmt.Errorf("core: query %s is already migrating", id)
		default:
			fq.migrating = true
			held = append(held, fq)
			items = append(items, &handoffItem{spec: fq.spec, from: f.entities[fq.entity], fq: fq})
			f.logger.Info("migration.start", fq.entity, "live migration starting",
				"query", id, "from", fq.entity, "to", toEntity)
		}
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		for _, fq := range held {
			fq.migrating = false
		}
		f.mu.Unlock()
	}()
	if len(items) == 0 {
		return 0, firstErr
	}
	moved, err := f.handoff(toEntity, items)
	if firstErr == nil {
		firstErr = err
	}
	return moved, firstErr
}

// execute carries out a migration plan — target entity → queries to move
// there — one handoff per target, in target order. It tries every
// target and returns how many queries moved and the first error.
func (f *Federation) execute(plan map[string][]string) (int, error) {
	moved := 0
	var firstErr error
	for _, target := range slices.Sorted(maps.Keys(plan)) {
		n, err := f.migrate(target, plan[target])
		moved += n
		if firstErr == nil {
			firstErr = err
		}
	}
	return moved, firstErr
}
