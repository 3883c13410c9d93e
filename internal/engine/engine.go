package engine

import (
	"sspd/internal/metrics"
	"sspd/internal/stream"
)

// Processor is the interface every per-entity processing engine
// implements. The inter-entity layer depends only on this interface plus
// QuerySpec — the embodiment of the paper's loose coupling: an entity can
// swap or upgrade its engine without any other entity noticing. Two
// engines implement it: ShardEngine (production, built by New) and
// MiniEngine (the synchronous oracle "of a different make").
//
// An engine is fed by query, the way an entity's delegation fan-out and
// fragment chains drive it: FeedQueryBatch names one query, a
// GroupFeeder's FeedGroupBatch several. There is no stream-routed way
// in; which queries a batch is for is the caller's decision.
//
// The contract every implementation keeps, and every caller may assume:
//
//  1. Order: batches one goroutine hands to one query (through
//     FeedQueryBatch or a GroupFeeder's FeedGroupBatch) are processed by
//     that query in the order handed over, tuple by tuple. Nothing is
//     promised across producers or across queries.
//  2. Ownership: a batch is the engine's from hand-over until the engine
//     is done with it, and is read-only for everyone for that time. An
//     asynchronous engine keeps the slice it is given — it copies nothing
//     — and may hold it, and every tuple in it, long after the call
//     returns; a synchronous engine is done when the call returns. So the
//     caller may keep reading the batch and may hand the same batch to
//     other engines, queries and gates, but must not write to its
//     elements or reuse the slice unless it knows the engine is
//     synchronous. Tuples are never mutated in place. The id list of a
//     grouped feed stays the caller's: it is resolved before the call
//     returns. A leased feed (GroupFeeder.FeedGroupLease) says when
//     "done" is: the engine holds the lease while it needs the rows and
//     releases it once the last query it fed them to has run them —
//     ShardEngine after the ring item's last query, MiniEngine when the
//     call returns.
//  3. Never block: no feed call waits for processing. An engine that
//     cannot take a tuple drops it and counts the drop (Reporter exposes
//     the counts); a synchronous engine never drops.
//  4. End of stream: everything handed over before Unregister(id) is
//     called is still processed, and its results emitted, before
//     Unregister returns. Close does the same for every query.
//  5. Close is idempotent; Register after Close fails, and a control
//     call that races Close returns (with an error where it has one) —
//     it never waits for an engine that has stopped.
//  6. emit runs on an engine goroutine (or inline in the feed call, in
//     a synchronous engine) with no engine lock held, so it may feed
//     this or another engine. An asynchronous engine's control calls
//     (Register, Unregister, state snapshots, Drain) wait for that
//     goroutine, so emit must not wait for a lock that a caller holds
//     across a call into an engine — in particular no entity lock (see
//     the rule at the top of entity.go). A result tuple is the
//     receiver's to keep: the engine never writes to it or its Values
//     again (and, like every tuple, it is never mutated in place). A
//     batch emit (BatchRegistrar) only borrows the slice that holds them.
type Processor interface {
	// Register compiles and starts a query; emit receives its results.
	Register(spec QuerySpec, emit func(stream.Tuple)) error
	// Unregister stops and removes a query, returning its spec so the
	// caller can re-register it elsewhere (query-level migration).
	Unregister(id string) (QuerySpec, error)
	// FeedQueryBatch delivers a batch to one query by ID.
	BatchFeeder
	// Load reports the engine's current abstract load estimate.
	Load() float64
	// Close stops all queries and releases resources.
	Close()
}

// BatchFeeder delivers a batch to one query by ID: one query lookup and
// one synchronization round for the whole batch. It fails only for an
// unknown ID.
type BatchFeeder interface {
	FeedQueryBatch(id string, b stream.Batch) error
}

// GroupFeeder is the optional capability of taking one batch for several
// queries at once — how a delegation processor feeds every head fragment
// an engine hosts: the engine enqueues the one batch once per shard, not
// once per query, and the batch is handed over as contract point 2 says.
// The ids are distinct and stay the caller's; one that is not registered
// (a removal raced the feed) is skipped and the rest are still fed.
// Contract points 1 to 4 hold per named query; FeedQueryBatch is the
// call for a list of one. Both engines implement it.
//
// FeedGroupLease is FeedGroupBatch for rows whose Values live in l's
// arena: b is l's batch or rows gathered from it, and the caller holds
// a reference for the call. The engine takes a reference of its own for
// as long as it reads the rows past the call — one per ring item that
// carries them — and releases it once the item's last query has run,
// when a full ring drops the item, or when Close drains it. That is safe
// only for queries that are done with their rows once they have run
// (QuerySpec.SealsResults); an id whose query does not seal is fed an
// owned copy instead, so a caller's stale view of what seals costs a copy,
// never a row read after its release.
type GroupFeeder interface {
	FeedGroupBatch(ids []string, b stream.Batch)
	FeedGroupLease(ids []string, b stream.Batch, l *stream.Lease)
}

// perQuery feeds a group one FeedQueryBatch at a time. It takes no
// lease: FeedQueryBatch keeps what it is fed, so a leased feed is fed an
// owned copy.
type perQuery struct{ BatchFeeder }

func (f perQuery) FeedGroupBatch(ids []string, b stream.Batch) {
	for _, id := range ids {
		_ = f.FeedQueryBatch(id, b) // unknown ids are skipped
	}
}

func (f perQuery) FeedGroupLease(ids []string, b stream.Batch, _ *stream.Lease) {
	f.FeedGroupBatch(ids, b.Compact(nil))
}

// GroupFeederOf returns p's grouped feed, or the per-query loop over
// FeedQueryBatch for an engine without the capability.
func GroupFeederOf(p Processor) GroupFeeder {
	if g, ok := p.(GroupFeeder); ok {
		return g
	}
	return perQuery{p}
}

// BatchRegistrar is the optional capability of registering a query whose
// results leave it a batch at a time: emit is called once per run — per
// batch the engine serves the query — with that run's results in order.
// The batch is borrowed for the call: the slice is the engine's and is
// reused by the next run, so a receiver that keeps the batch past the
// call keeps a copy of the slice. The tuples in it are the receiver's to
// keep, as point 6 says, so a copy of the slice is a copy of the batch.
// Points 1 and 6 hold as for Register. ShardEngine implements it.
type BatchRegistrar interface {
	RegisterBatch(spec QuerySpec, emit func(stream.Batch)) error
}

// perRow registers a batch emit through Register: every result is a
// batch of one.
type perRow struct{ Processor }

func (p perRow) RegisterBatch(spec QuerySpec, emit func(stream.Batch)) error {
	if emit == nil {
		return p.Register(spec, nil)
	}
	return p.Register(spec, func(t stream.Tuple) { emit(stream.Batch{t}) })
}

// BatchRegistrarOf returns p's batch registration, or Register with a
// batch of one per result for an engine without the capability.
func BatchRegistrarOf(p Processor) BatchRegistrar {
	if r, ok := p.(BatchRegistrar); ok {
		return r
	}
	return perRow{p}
}

// Reporter is the optional capability of an instrumented engine: the
// per-query measurements placement and the stats plane read, the drop
// accounting of contract point 3, and the telemetry snapshot of the
// introspection plane (DESIGN.md §14). ShardEngine implements it;
// MiniEngine, which neither queues nor measures, does not.
type Reporter interface {
	// Metrics returns one query's measured performance; ok is false for
	// unknown IDs.
	Metrics(id string) (QueryMetrics, bool)
	// Dropped returns the tuples dropped for one registered query; 0 for
	// unknown IDs.
	Dropped(id string) int64
	// TotalDropped returns the engine-lifetime dropped total, including
	// queries since unregistered.
	TotalDropped() int64
	// EngineStats returns the per-shard telemetry snapshot.
	EngineStats() EngineStats
}

// QueryMetrics summarizes one query's measured performance inside an
// engine: d (total delay), p (processing time), and the paper's
// Performance Ratio PR = d/p.
type QueryMetrics struct {
	ID      string
	Results int64
	// Delay is per tuple: handed to the engine until its results are out.
	Delay metrics.Snapshot
	// Processing is per tuple, at the grain the engine serves tuples at:
	// the run time of the batch the tuple travelled in, i.e. its delay
	// had nothing been waiting.
	Processing metrics.Snapshot
	// Busy is the engine time spent on the query, in seconds (each batch
	// run counted once).
	Busy float64
	// PR is mean delay over mean processing time (Section 4.1): 1 means
	// no tuple waited.
	PR float64
}

// New returns the production engine: a ShardEngine with one shard per
// CPU. Use NewShard for an explicit shard count.
func New(name string, catalog *stream.Catalog) *ShardEngine {
	return NewShard(name, catalog, 0)
}
