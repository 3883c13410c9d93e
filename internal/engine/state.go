// Query-state snapshot and restore: the engine-level half of live
// stateful migration (DESIGN.md §10). A snapshot walks a compiled
// query's operators and serializes every one implementing
// operator.Stateful, keyed by the operator's deterministic in-query name
// (Compile derives names from the spec alone, so the same spec placed on
// another entity yields matching names).
package engine

import (
	"fmt"

	"sspd/internal/operator"
)

// OperatorState is one operator's serialized migration state.
type OperatorState struct {
	Name string
	Data []byte
}

// QueryState is a compiled query's full operator state in pipeline
// order.
type QueryState []OperatorState

// Bytes returns the serialized payload size — the state-transfer cost
// reported by migration metrics.
func (st QueryState) Bytes() int {
	n := 0
	for _, os := range st {
		n += len(os.Name) + len(os.Data)
	}
	return n
}

// StateSnapshotter is the optional engine capability live migration
// needs. Engines that do not implement it still migrate, but only the
// buffered in-flight tuples move — window state restarts empty
// (entity-level callers detect this and degrade gracefully).
type StateSnapshotter interface {
	// SnapshotQueryState serializes a query's operator state.
	SnapshotQueryState(id string) (QueryState, error)
	// RestoreQueryState replaces a query's operator state.
	RestoreQueryState(id string, st QueryState) error
	// QueryStateBytes estimates a query's state size; ok is false for
	// unknown queries.
	QueryStateBytes(id string) (int, bool)
}

func snapshotQuery(q *Query) QueryState {
	var st QueryState
	for _, op := range q.Operators() {
		if s, ok := op.(operator.Stateful); ok {
			st = append(st, OperatorState{Name: op.Name(), Data: s.SnapshotState()})
		}
	}
	return st
}

func restoreQuery(q *Query, st QueryState) error {
	ops := make(map[string]operator.Stateful)
	for _, op := range q.Operators() {
		if s, ok := op.(operator.Stateful); ok {
			ops[op.Name()] = s
		}
	}
	for _, os := range st {
		s, ok := ops[os.Name]
		if !ok {
			return fmt.Errorf("engine: query %s has no stateful operator %q", q.ID(), os.Name)
		}
		if err := s.RestoreState(os.Data); err != nil {
			return fmt.Errorf("engine: restore %s/%s: %w", q.ID(), os.Name, err)
		}
	}
	return nil
}

func queryStateBytes(q *Query) int {
	n := 0
	for _, op := range q.Operators() {
		if s, ok := op.(operator.Stateful); ok {
			n += s.StateBytes()
		}
	}
	return n
}

// SnapshotQueryState implements StateSnapshotter. MiniEngine is
// synchronous, so the mutex alone serializes state access.
func (m *MiniEngine) SnapshotQueryState(id string) (QueryState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return nil, fmt.Errorf("engine %s: unknown query %s", m.name, id)
	}
	return snapshotQuery(q), nil
}

// RestoreQueryState implements StateSnapshotter.
func (m *MiniEngine) RestoreQueryState(id string, st QueryState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return fmt.Errorf("engine %s: unknown query %s", m.name, id)
	}
	return restoreQuery(q, st)
}

// QueryStateBytes implements StateSnapshotter.
func (m *MiniEngine) QueryStateBytes(id string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return 0, false
	}
	return queryStateBytes(q), true
}
