// Package core assembles the paper's two-layer architecture: the
// inter-entity layer (dissemination trees, coordinator-tree query
// routing, query-graph allocation, business accounting) on top of the
// intra-entity layer (package entity) and the substrates (engine,
// dissemination, coordinator, querygraph, simnet).
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Ledger implements the paper's incentive model: "an entity can be paid
// based on the length of time when it is executing the queries". It
// accumulates query-execution seconds per entity, following queries as
// they migrate.
type Ledger struct {
	mu      sync.Mutex
	now     func() time.Time
	accrued map[string]time.Duration // entity -> closed-out execution time
	active  map[string]activeQuery   // query -> current run
}

type activeQuery struct {
	entity string
	since  time.Time
}

// NewLedger returns an empty ledger. clock may be nil (wall clock).
func NewLedger(clock func() time.Time) *Ledger {
	if clock == nil {
		clock = time.Now
	}
	return &Ledger{
		now:     clock,
		accrued: make(map[string]time.Duration),
		active:  make(map[string]activeQuery),
	}
}

// Start begins accruing a query's execution time to an entity.
func (l *Ledger) Start(queryID, entityID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.active[queryID]; dup {
		return fmt.Errorf("core: query %s already accruing", queryID)
	}
	l.active[queryID] = activeQuery{entity: entityID, since: l.now()}
	return nil
}

// Stop closes out a query's accrual.
func (l *Ledger) Stop(queryID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.active[queryID]
	if !ok {
		return fmt.Errorf("core: query %s not accruing", queryID)
	}
	l.accrued[a.entity] += l.now().Sub(a.since)
	delete(l.active, queryID)
	return nil
}

// Move transfers a query's accrual to another entity (migration): the
// old entity is paid for the time served so far.
func (l *Ledger) Move(queryID, toEntity string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.active[queryID]
	if !ok {
		return fmt.Errorf("core: query %s not accruing", queryID)
	}
	now := l.now()
	l.accrued[a.entity] += now.Sub(a.since)
	l.active[queryID] = activeQuery{entity: toEntity, since: now}
	return nil
}

// Charge returns an entity's total accrued execution time including
// in-flight accrual.
func (l *Ledger) Charge(entityID string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.accrued[entityID]
	now := l.now()
	for _, a := range l.active {
		if a.entity == entityID {
			total += now.Sub(a.since)
		}
	}
	return total
}

// Charges returns every entity's total, sorted by entity ID.
func (l *Ledger) Charges() []EntityCharge {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	totals := make(map[string]time.Duration, len(l.accrued))
	for e, d := range l.accrued {
		totals[e] += d
	}
	for _, a := range l.active {
		totals[a.entity] += now.Sub(a.since)
	}
	out := make([]EntityCharge, 0, len(totals))
	for e, d := range totals {
		out = append(out, EntityCharge{Entity: e, Execution: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entity < out[j].Entity })
	return out
}

// EntityCharge is one entity's accrued execution time.
type EntityCharge struct {
	Entity    string
	Execution time.Duration
}

// ActiveQueries returns the number of queries currently accruing.
func (l *Ledger) ActiveQueries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.active)
}
