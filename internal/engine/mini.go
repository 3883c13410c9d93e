package engine

import (
	"fmt"
	"sync"

	"sspd/internal/stream"
)

// MiniEngine is a deliberately different engine implementation: fully
// synchronous (a feed runs queries inline under one mutex and emits
// their results before it returns), with no queues and no latency
// instrumentation. It stands in for the "different
// processing engine from a different vendor" the paper's loose-coupling
// argument hinges on — the federation treats ShardEngine and MiniEngine
// identically because both speak QuerySpec — and it is the oracle the
// differential suite holds the production engine against.
type MiniEngine struct {
	name    string
	catalog *stream.Catalog

	mu      sync.Mutex
	queries map[string]*Query
	byInput map[string][]*Query
	results map[string]int64
	closed  bool
	// out collects the results of the feed in progress. They are emitted
	// once mu is released (unlockAndEmit), still before the feed call
	// returns, so an emit may feed this engine again — two chained
	// fragments on one processor do — and may wait for a lock whose
	// holder is calling into this engine.
	out []miniResult
}

type miniResult struct {
	emit func(stream.Tuple)
	t    stream.Tuple
}

// unlockAndEmit ends a feed: it releases mu and emits, in order, what
// the feed produced.
func (m *MiniEngine) unlockAndEmit() {
	out := m.out
	m.out = nil
	m.mu.Unlock()
	for _, r := range out {
		r.emit(r.t)
	}
}

// NewMini returns a MiniEngine reading schemas from catalog.
func NewMini(name string, catalog *stream.Catalog) *MiniEngine {
	return &MiniEngine{
		name:    name,
		catalog: catalog,
		queries: make(map[string]*Query),
		byInput: make(map[string][]*Query),
		results: make(map[string]int64),
	}
}

// Register implements Processor.
func (m *MiniEngine) Register(spec QuerySpec, emit func(stream.Tuple)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("miniengine %s: closed", m.name)
	}
	if _, dup := m.queries[spec.ID]; dup {
		return fmt.Errorf("miniengine %s: query %s already registered", m.name, spec.ID)
	}
	id := spec.ID
	q, err := compile(spec, m.catalog, func(b stream.Batch) {
		m.results[id] += int64(len(b))
		if emit != nil {
			for _, t := range b {
				m.out = append(m.out, miniResult{emit, t})
			}
		}
	}, true)
	if err != nil {
		return err
	}
	m.queries[spec.ID] = q
	for _, s := range spec.Streams() {
		m.byInput[s] = append(m.byInput[s], q)
	}
	return nil
}

// Unregister implements Processor.
func (m *MiniEngine) Unregister(id string) (QuerySpec, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return QuerySpec{}, fmt.Errorf("miniengine %s: unknown query %s", m.name, id)
	}
	delete(m.queries, id)
	delete(m.results, id)
	for _, s := range q.Spec().Streams() {
		list := m.byInput[s]
		for i := range list {
			if list[i] == q {
				m.byInput[s] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(m.byInput[s]) == 0 {
			delete(m.byInput, s)
		}
	}
	return q.Spec(), nil
}

// IngestBatch delivers a batch to every registered query that consumes
// its tuples' streams, under one lock round: the stream-routed feed an
// oracle fed from a whole workload uses. The federation feeds by query.
func (m *MiniEngine) IngestBatch(b stream.Batch) {
	if len(b) == 0 {
		return
	}
	m.mu.Lock()
	defer m.unlockAndEmit()
	for i := range b {
		for _, q := range m.byInput[b[i].Stream] {
			q.Feed(b[i].Stream, b[i])
		}
	}
}

// FeedQueryBatch implements BatchFeeder: one lock and lookup round for
// the whole batch.
func (m *MiniEngine) FeedQueryBatch(id string, b stream.Batch) error {
	m.mu.Lock()
	defer m.unlockAndEmit()
	q, ok := m.queries[id]
	if !ok {
		return fmt.Errorf("miniengine %s: unknown query %s", m.name, id)
	}
	for i := range b {
		q.Feed(b[i].Stream, b[i])
	}
	return nil
}

// FeedGroupBatch implements GroupFeeder: one lock round for the whole
// group, the batch run through each registered id in turn.
func (m *MiniEngine) FeedGroupBatch(ids []string, b stream.Batch) {
	m.feedGroup(ids, b, false)
}

// FeedGroupLease implements GroupFeeder. The engine is done with the rows
// when the call returns, so it takes no reference; a query that does not
// seal, whose results are its input rows, runs an owned copy.
func (m *MiniEngine) FeedGroupLease(ids []string, b stream.Batch, _ *stream.Lease) {
	m.feedGroup(ids, b, true)
}

func (m *MiniEngine) feedGroup(ids []string, b stream.Batch, leased bool) {
	m.mu.Lock()
	defer m.unlockAndEmit()
	var owned stream.Batch
	for _, id := range ids {
		q, ok := m.queries[id]
		if !ok {
			continue
		}
		in := b
		if leased && !q.seals {
			if owned == nil {
				owned = b.Compact(nil)
			}
			in = owned
		}
		for i := range in {
			q.Feed(in[i].Stream, in[i])
		}
	}
}

// Load implements Processor.
func (m *MiniEngine) Load() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	load := 0.0
	for _, q := range m.queries {
		load += q.Spec().EstimatedLoad()
	}
	return load
}

// Results reports the number of result tuples a query has emitted.
func (m *MiniEngine) Results(id string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.results[id]
}

// Close implements Processor.
func (m *MiniEngine) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.queries = make(map[string]*Query)
	m.byInput = make(map[string][]*Query)
}

var (
	_ Processor        = (*MiniEngine)(nil)
	_ GroupFeeder      = (*MiniEngine)(nil)
	_ Adapter          = (*MiniEngine)(nil)
	_ StateSnapshotter = (*MiniEngine)(nil)
)
