// ShardEngine: the shard-per-core vectorized engine (DESIGN.md §13).
//
// ShardEngine is the production engine (engine.New builds it). It runs
// one goroutine per CPU shard behind a bounded ring queue whose slots
// carry whole batches. Queries are hash-partitioned across shards, so a
// shard owns its queries outright: query state and operator pipelines
// are goroutine-confined and touched without locks. The engine is fed by
// query (FeedQueryBatch, FeedGroupBatch): producers ship the batches they
// are handed into the named queries' owning shards' rings (drop-and-count
// on overflow — the Processor contract's never-block rule), everything
// per-tuple inside a shard runs over
// columnar batches — a filter scans columns and only shrinks a selection
// vector, and the stateful tail runs one virtual dispatch + one stats
// lock per batch instead of per tuple (Query.runBatch) — and a query's
// results leave as one batch per run (RegisterBatch).
//
// Control operations (register/unregister, snapshot/restore for live
// migration and checkpoints, adaptation) travel through the same ring
// as data with a blocking enqueue, so they serialize with tuple
// processing in FIFO order.
//
// A shard costs nothing until it hosts a query: its ring (~100 KB) is
// allocated and its goroutine started by the first Register that hashes
// onto it, so an entity's idle processors stay idle.
package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/metrics"
	"sspd/internal/stream"
)

// shardRingDepth bounds each shard's ring. Slots hold batches, so the
// tuple backlog bound is shardRingDepth × batch size.
const shardRingDepth = 1024

// shardQuery is one query owned by one shard.
type shardQuery struct {
	sh *shard
	q  *Query
	// self is the list of one naming this query: what a single-query
	// feed puts in its ring item, so it allocates no list.
	self []*shardQuery
	// installed is the query's membership of its shard, owned by the
	// shard goroutine: the install control item sets it and uninstall
	// clears it, and a ring item — data or control — naming a query that
	// is not installed skips or refuses it.
	installed bool
	results   metrics.Counter
	delay     metrics.Histogram
	proc      metrics.Histogram
	busyNs    metrics.Counter
	dropped   metrics.Counter
}

// ShardEngine is the shard-per-core engine. It implements Processor,
// BatchRegistrar, Reporter, StateSnapshotter and Adapter, so entities
// host it interchangeably with MiniEngine — migration and checkpoint
// choreography included.
type ShardEngine struct {
	name    string
	catalog *stream.Catalog
	shards  []*shard

	// ctlMu serializes control-plane operations (Register/Unregister)
	// end to end, so install/uninstall control items enter shard rings
	// in a well-defined order without holding mu across a (potentially
	// spinning) control enqueue — data-plane emit callbacks may re-enter
	// the engine under mu.RLock.
	ctlMu sync.Mutex

	mu      sync.RWMutex
	queries map[string]*shardQuery
	// groups holds the grouped feeds' resolved id lists (see
	// FeedGroupBatch). Every Register and Unregister empties it, so no
	// entry outlives a registration change.
	groups map[*string]resolvedGroup
	closed bool

	// droppedTotal is the engine-lifetime dropped-tuple count across all
	// queries — unlike the per-query counters it survives Unregister, so
	// the entity-level drop attribution never loses history.
	droppedTotal metrics.Counter
}

// shard is one per-core processing lane: a ring, a goroutine, and the
// goroutine-confined query state.
type shard struct {
	eng *ShardEngine
	idx int
	// ring is nil until start. It is written under eng.mu before any
	// query entry names the shard, so producers — which reach a shard only
	// through that table — never see it nil.
	ring *shardRing
	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	// sleeping tells producers the shard has parked and needs a wake.
	sleeping atomic.Bool
	// pending counts enqueued ring items until fully processed, so
	// Drain observes true idleness.
	pending atomic.Int64

	// stats is the shard's telemetry (DESIGN.md §14): batch-grained
	// atomics only, updated by producers and the shard goroutine.
	stats shardStats

	// Owned by the shard goroutine.
	cb *stream.ColBatch
	// cbStale is set at the start of every data item: the first query of
	// the item that runs kernels columnarizes the batch, the rest share
	// the columns and only reset the selection.
	cbStale bool
}

// NewShard returns a ShardEngine with nShards per-core shards; nShards
// <= 0 defaults to GOMAXPROCS.
func NewShard(name string, catalog *stream.Catalog, nShards int) *ShardEngine {
	if nShards <= 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	e := &ShardEngine{
		name:    name,
		catalog: catalog,
		queries: make(map[string]*shardQuery),
	}
	for i := 0; i < nShards; i++ {
		e.shards = append(e.shards, &shard{eng: e, idx: i})
	}
	return e
}

// start allocates the shard's ring and starts its goroutine. Caller
// holds eng.mu for writing.
func (sh *shard) start() {
	sh.ring = newShardRing(shardRingDepth)
	sh.wake = make(chan struct{}, 1)
	sh.stop = make(chan struct{})
	sh.done = make(chan struct{})
	sh.cb = stream.NewColBatch()
	go sh.run()
}

// started lists the shards that have hosted a query. Caller holds
// eng.mu.
func (e *ShardEngine) started() []*shard {
	out := make([]*shard, 0, len(e.shards))
	for _, sh := range e.shards {
		if sh.ring != nil {
			out = append(out, sh)
		}
	}
	return out
}

// shardFor hash-partitions a query ID onto a shard (FNV-1a, inlined so
// assignment allocates nothing).
func (e *ShardEngine) shardFor(id string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return e.shards[h%uint64(len(e.shards))]
}

// Register implements Processor: RegisterBatch with emit called per
// result.
func (e *ShardEngine) Register(spec QuerySpec, emit func(stream.Tuple)) error {
	if emit == nil {
		return e.RegisterBatch(spec, nil)
	}
	return e.RegisterBatch(spec, func(b stream.Batch) {
		for _, t := range b {
			emit(t)
		}
	})
}

// RegisterBatch implements BatchRegistrar: the query compiles on the
// caller, then installs into its owning shard via a control item through
// the ring, so installation serializes with tuple processing. emit runs
// on the shard goroutine once per (query, batch) run.
func (e *ShardEngine) RegisterBatch(spec QuerySpec, emit func(stream.Batch)) error {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	q, err := Compile(spec, e.catalog, emit)
	if err != nil {
		return err
	}
	sq := &shardQuery{q: q}
	sq.self = []*shardQuery{sq}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("engine %s: closed", e.name)
	}
	if _, dup := e.queries[spec.ID]; dup {
		e.mu.Unlock()
		return fmt.Errorf("engine %s: query %s already registered", e.name, spec.ID)
	}
	sq.sh = e.shardFor(spec.ID)
	if sq.sh.ring == nil {
		sq.sh.start()
	}
	e.queries[spec.ID] = sq
	clear(e.groups)
	e.mu.Unlock()
	// Install on the owning shard. Tuples dispatched between publish and
	// install are skipped by the shard — indistinguishable from arriving
	// just before registration. A shard that stopped under us means Close
	// won the race; it clears the tables itself.
	return sq.sh.do(&shardCtl{op: shardCtlInstall, sq: sq})
}

// Unregister implements Processor. The uninstall control item trails
// every previously enqueued data item through the ring, so tuples
// fed before Unregister are still processed (contract point 4).
func (e *ShardEngine) Unregister(id string) (QuerySpec, error) {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	e.mu.RLock()
	sq, ok := e.queries[id]
	e.mu.RUnlock()
	if !ok {
		return QuerySpec{}, fmt.Errorf("engine %s: unknown query %s", e.name, id)
	}
	e.mu.Lock()
	delete(e.queries, id)
	clear(e.groups)
	e.mu.Unlock()
	if err := sq.sh.do(&shardCtl{op: shardCtlUninstall, sq: sq}); err != nil {
		return QuerySpec{}, err
	}
	return sq.q.Spec(), nil
}

// byShard orders queries so that each shard's form one run.
func byShard(a, b *shardQuery) int { return a.sh.idx - b.sh.idx }

// enqueueGroups publishes b once per owning shard of qs, which is
// sorted byShard: each ring item names its shard's queries, and holds a
// reference to l when b lives in a lease.
func enqueueGroups(qs []*shardQuery, b stream.Batch, l *stream.Lease, arrived time.Time) {
	for lo := 0; lo < len(qs); {
		hi := lo + 1
		for hi < len(qs) && qs[hi].sh == qs[lo].sh {
			hi++
		}
		if l != nil {
			l.Retain()
		}
		qs[lo].sh.enqueueData(ringItem{b: b, qs: qs[lo:hi], lease: l, arrived: arrived})
		lo = hi
	}
}

// ship is every feed. The engine keeps b itself (contract point 2: it is
// the engine's, and read-only for everyone, until the shards are done
// with it): each same-stream run is a sub-slice of it, enqueued once per
// owning shard of qs, which is sorted byShard. With a lease, every item
// holds a reference until its shard has run it.
func (e *ShardEngine) ship(b stream.Batch, qs []*shardQuery, l *stream.Lease) {
	if len(b) == 0 || len(qs) == 0 {
		return
	}
	arrived := time.Now()
	start := 0
	for i := 1; i <= len(b); i++ {
		if i == len(b) || b[i].Stream != b[start].Stream {
			enqueueGroups(qs, b[start:i], l, arrived)
			start = i
		}
	}
}

// FeedQueryBatch implements Processor: FeedGroupBatch for a list of one.
func (e *ShardEngine) FeedQueryBatch(id string, b stream.Batch) error {
	e.mu.RLock()
	sq, ok := e.queries[id]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("engine %s: unknown query %s", e.name, id)
	}
	e.ship(b, sq.self, nil)
	return nil
}

// resolvedGroup is one grouped feed's id list resolved: ids is a copy of
// the list, qs its registered queries sorted byShard, and seals whether
// none of them keeps rows (Query.keepsRows), so a lent feed is leased.
type resolvedGroup struct {
	ids   []string
	qs    []*shardQuery
	seals bool
}

// maxGroups bounds the resolved lists kept between registration changes.
// A caller that hands over a fresh list per feed adds one each time; the
// table is emptied when it is full.
const maxGroups = 64

// FeedGroupBatch implements GroupFeeder: the ids are resolved and
// grouped by owning shard here, on the caller, so the shard never reads
// the caller's id list; the batch it does keep (see ship). A caller hands
// the same list again and again — a delegation processor the lists of its
// published fan-out table, a frame handler the list it decoded from the
// same ID section before — so a resolution is kept under the address of
// the list's first element until the next registration change and reused
// while the list still holds the same ids: a steady-state grouped feed
// compares its ids and allocates nothing.
func (e *ShardEngine) FeedGroupBatch(ids []string, b stream.Batch) {
	qs, _ := e.group(ids)
	e.ship(b, qs, nil)
}

// FeedGroupLent implements GroupFeeder: FeedGroupBatch of the one copy
// the engine makes of a lent batch — a pooled lease unless a query named
// is a join (l itself, when the rows are in one already), each ring item
// holding a reference until its shard has run it; otherwise an owned
// Compact. Which it is was settled when the list was resolved, so the
// feed itself probes nothing.
func (e *ShardEngine) FeedGroupLent(ids []string, b stream.Batch, l *stream.Lease) {
	qs, seals := e.group(ids) // an empty list seals
	if len(b) == 0 || len(qs) == 0 {
		return
	}
	if !seals {
		e.ship(b.Compact(nil), qs, nil)
		return
	}
	if l == nil {
		l = stream.LeaseCopy(b)
		defer l.Release() // the copy's own reference; every ring item took one
		b = l.Batch()
	}
	e.ship(b, qs, l)
}

// Seals implements GroupFeeder, from the resolution the feed reuses.
func (e *ShardEngine) Seals(ids []string) bool {
	_, seals := e.group(ids)
	return seals
}

// group resolves a grouped feed's ids into the queries to ship to and
// whether a lent feed of them is leased (none keeps rows). A list of one
// is looked up; a longer one is resolved once and reused while it holds
// the same ids.
func (e *ShardEngine) group(ids []string) ([]*shardQuery, bool) {
	switch len(ids) {
	case 0:
		return nil, true
	case 1:
		e.mu.RLock()
		sq, ok := e.queries[ids[0]]
		e.mu.RUnlock()
		if !ok {
			return nil, true // an unknown id is skipped
		}
		return sq.self, !sq.q.keepsRows()
	}
	e.mu.RLock()
	g, ok := e.groups[&ids[0]]
	e.mu.RUnlock()
	if !ok || !slices.Equal(g.ids, ids) {
		g = e.resolveGroup(ids)
	}
	return g.qs, g.seals
}

// resolveGroup resolves ids — an unknown id is skipped — and keeps the
// result for the next feed of the same list.
func (e *ShardEngine) resolveGroup(ids []string) resolvedGroup {
	g := resolvedGroup{ids: slices.Clone(ids), qs: make([]*shardQuery, 0, len(ids)), seals: true}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range ids {
		if sq, ok := e.queries[id]; ok {
			g.qs = append(g.qs, sq)
			g.seals = g.seals && !sq.q.keepsRows()
		}
	}
	slices.SortFunc(g.qs, byShard)
	if e.groups == nil || len(e.groups) >= maxGroups {
		e.groups = make(map[*string]resolvedGroup)
	}
	e.groups[&ids[0]] = g
	return g
}

// Load implements Processor: estimated query loads plus ring backlog
// pressure.
func (e *ShardEngine) Load() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	load := 0.0
	for _, sq := range e.queries {
		load += sq.q.Spec().EstimatedLoad()
	}
	for _, sh := range e.shards {
		load += float64(sh.pending.Load()) / shardRingDepth
	}
	return load
}

// Metrics implements Reporter.
func (e *ShardEngine) Metrics(id string) (QueryMetrics, bool) {
	e.mu.RLock()
	sq, ok := e.queries[id]
	e.mu.RUnlock()
	if !ok {
		return QueryMetrics{}, false
	}
	m := QueryMetrics{
		ID:         id,
		Results:    sq.results.Value(),
		Delay:      sq.delay.Snapshot(),
		Processing: sq.proc.Snapshot(),
		Busy:       float64(sq.busyNs.Value()) / 1e9,
	}
	if m.Processing.Mean > 0 {
		m.PR = m.Delay.Mean / m.Processing.Mean
	}
	return m, true
}

// Dropped implements Reporter: tuples dropped on full shard rings,
// attributed per query.
func (e *ShardEngine) Dropped(id string) int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if sq, ok := e.queries[id]; ok {
		return sq.dropped.Value()
	}
	return 0
}

// Drain blocks until every shard ring is empty and processed, or the
// timeout elapses.
func (e *ShardEngine) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		var pending int64
		for _, sh := range e.shards {
			pending += sh.pending.Load()
		}
		if pending == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// AdaptOrdering implements Adapter: each shard re-evaluates its
// queries' filter ordering on its own goroutine (serialized with
// feeds); the next batch runs the filters in the new order.
func (e *ShardEngine) AdaptOrdering(minGain float64) int {
	minGain = normalizeGain(minGain)
	// Check closed under the lock, but enqueue without it: emit callbacks
	// on shard goroutines re-enter the engine under mu.RLock, so spinning
	// on a full ring while holding mu (with a writer queued) would
	// deadlock the whole engine. A query registered after this snapshot
	// has no statistics to adapt from yet.
	ctls := make(map[*shard]*shardCtl)
	e.mu.RLock()
	if !e.closed {
		for _, sq := range e.queries {
			c := ctls[sq.sh]
			if c == nil {
				c = &shardCtl{op: shardCtlAdapt, minGain: minGain}
				ctls[sq.sh] = c
			}
			c.sqs = append(c.sqs, sq)
		}
	}
	e.mu.RUnlock()
	for sh, c := range ctls {
		sh.enqueueCtl(c)
	}
	n := 0
	for sh, c := range ctls {
		if sh.wait(c) == nil {
			n += c.changed
		}
	}
	return n
}

// SnapshotQueryState implements StateSnapshotter via a control item on
// the owning shard, so state access serializes with tuple processing.
func (e *ShardEngine) SnapshotQueryState(id string) (QueryState, error) {
	sq, err := e.lookup(id)
	if err != nil {
		return nil, err
	}
	c := &shardCtl{op: shardCtlSnapshot, sq: sq}
	err = sq.sh.do(c)
	return c.snap, err
}

// RestoreQueryState implements StateSnapshotter.
func (e *ShardEngine) RestoreQueryState(id string, st QueryState) error {
	sq, err := e.lookup(id)
	if err != nil {
		return err
	}
	return sq.sh.do(&shardCtl{op: shardCtlRestore, sq: sq, restore: st})
}

// QueryStateBytes implements StateSnapshotter.
func (e *ShardEngine) QueryStateBytes(id string) (int, bool) {
	sq, err := e.lookup(id)
	if err != nil {
		return 0, false
	}
	c := &shardCtl{op: shardCtlBytes, sq: sq}
	if sq.sh.do(c) != nil {
		return 0, false
	}
	return c.bytes, true
}

func (e *ShardEngine) lookup(id string) (*shardQuery, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("engine %s: closed", e.name)
	}
	sq, ok := e.queries[id]
	if !ok {
		return nil, fmt.Errorf("engine %s: unknown query %s", e.name, id)
	}
	return sq, nil
}

// Close implements Processor: drain every shard, stop.
func (e *ShardEngine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	shards := e.started() // closed: no Register can start another
	e.mu.Unlock()
	for _, sh := range shards {
		close(sh.stop)
	}
	for _, sh := range shards {
		<-sh.done
	}
	e.mu.Lock()
	e.queries = make(map[string]*shardQuery)
	e.groups = nil
	e.mu.Unlock()
}

// ---- shard side ----

// shardCtl ops.
const (
	shardCtlInstall = iota + 1
	shardCtlUninstall
	shardCtlSnapshot
	shardCtlRestore
	shardCtlBytes
	shardCtlAdapt
)

// shardCtl is a control item executed on the shard goroutine, FIFO
// with data items (it travels through the same ring).
type shardCtl struct {
	op int
	// sq is the query the item is about; an adapt item instead lists in
	// sqs the queries the engine routed to the shard when it was made.
	sq      *shardQuery
	sqs     []*shardQuery
	restore QueryState
	snap    QueryState
	bytes   int
	minGain float64
	changed int
	err     error
	done    chan struct{}
	// enq stamps the control item's ring entry so processCtl can measure
	// its queueing latency (control items are rare; a clock read here is
	// off the tuple path).
	enq time.Time
}

// enqueueData publishes a data item. A full ring refuses it, and every
// tuple of the batch is counted as dropped once per query the item
// names — per query, per shard and for the engine, so the totals are the
// sum of the per-query counts.
func (sh *shard) enqueueData(item ringItem) {
	n := int64(len(item.b))
	total := n * int64(len(item.qs))
	// One occupancy sample per enqueue = batch granularity: two atomic
	// loads and one histogram bump, no clock read (lint-obslog holds the
	// ring publish path to the same clock-free rule as the kernels).
	sh.stats.observeOcc(sh.ring.occupancy())
	sh.stats.offered.Add(total)
	// Count before publishing: if the consumer could dequeue and
	// decrement before our increment, pending would dip negative and
	// Drain could sum a spurious zero across shards while work remains.
	sh.pending.Add(1)
	if !sh.ring.enqueue(item) {
		sh.pending.Add(-1)
		if item.lease != nil {
			item.lease.Release()
		}
		for _, sq := range item.qs {
			sq.dropped.Add(n)
		}
		sh.stats.dropped.Add(total)
		sh.eng.droppedTotal.Add(total)
		return
	}
	sh.wakeup()
}

// do runs one control item on the shard goroutine and waits for its
// answer. A shard that has stopped answers with an error instead — a
// control call racing Close returns, it never hangs.
func (sh *shard) do(c *shardCtl) error {
	sh.enqueueCtl(c)
	return sh.wait(c)
}

// wait blocks until the shard has executed c or has stopped without
// doing so.
func (sh *shard) wait(c *shardCtl) error {
	select {
	case <-c.done:
		return c.err
	case <-sh.done:
	}
	// The shard drains its ring before it exits, so whether c was
	// executed is settled by now.
	select {
	case <-c.done:
		return c.err
	default:
		sh.pending.Add(-1) // published after the last drain: orphaned
		return fmt.Errorf("engine %s: shard %d stopped", sh.eng.name, sh.idx)
	}
}

// enqueueCtl publishes a control item with a blocking (spinning)
// enqueue — control is never dropped. The consumer keeps draining, so
// the spin terminates unless the shard has already stopped, which
// answers c with an error.
func (sh *shard) enqueueCtl(c *shardCtl) {
	c.done = make(chan struct{})
	c.enq = time.Now()
	item := ringItem{ctl: c}
	sh.pending.Add(1) // count before publish; see enqueueData
	for !sh.ring.enqueue(item) {
		select {
		case <-sh.done:
			sh.pending.Add(-1)
			c.err = fmt.Errorf("engine %s: shard %d stopped", sh.eng.name, sh.idx)
			close(c.done)
			return
		default:
			runtime.Gosched()
		}
	}
	sh.wakeup()
}

func (sh *shard) wakeup() {
	if sh.sleeping.Load() {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// run is the shard goroutine: drain the ring, then park until a
// producer wakes it — polling an empty ring first cost more CPU across
// an entity's mostly idle shards than the wake-ups it saved. On stop it
// drains what remains (contract point 4: tuples enqueued before Close
// are processed).
func (sh *shard) run() {
	defer close(sh.done)
	for {
		item, ok := sh.ring.dequeue()
		if ok {
			sh.process(item)
			sh.pending.Add(-1)
			continue
		}
		select {
		case <-sh.stop:
			for {
				item, ok := sh.ring.dequeue()
				if !ok {
					return
				}
				sh.process(item)
				sh.pending.Add(-1)
			}
		default:
		}
		sh.sleeping.Store(true)
		if !sh.ring.empty() {
			sh.sleeping.Store(false)
			continue
		}
		select {
		case <-sh.wake:
		case <-sh.stop:
		}
		sh.sleeping.Store(false)
	}
}

// process executes one ring item on the shard goroutine. The queries it
// names run back to back, and one clock read marks each boundary: the
// end of one query's run is the start of the next one's, so an item of
// n queries reads the clock n+1 times. A leased item's reference is
// released after its last query has run: none is a join, and results
// are lent for the emit call alone (Processor point 6), so nothing reads
// its rows after that (the shard's columns and the queries' row buffers
// keep them reachable until the next item, but never read them again).
func (sh *shard) process(item ringItem) {
	if item.ctl != nil {
		sh.processCtl(item.ctl)
		return
	}
	sh.cbStale = true
	var stamp time.Time
	for _, sq := range item.qs {
		if !sq.installed {
			continue
		}
		if stamp.IsZero() {
			stamp = time.Now()
		}
		stamp = sh.feedBatch(sq, item, stamp)
	}
	if item.lease != nil {
		item.lease.Release()
	}
}

// feedBatch runs one same-stream batch through one query — the columnar
// batch run, or per-tuple Feed for a join query (either input stream) —
// from start, the stamp process took, and returns the stamp it takes at
// the end: one clock read per (query, batch), the rule the batch run
// relies on. The per-tuple delay/processing histograms are updated with
// one weighted observation each. Both are charged at the grain a tuple is
// served at, the batch: d is arrival to the end of the batch's run, p is
// that run alone — the soonest a tuple of the batch could have come out —
// so PR = d/p is 1 with no waiting, whatever the batch size. The engine
// time the run cost goes to busyNs once.
func (sh *shard) feedBatch(sq *shardQuery, item ringItem, start time.Time) time.Time {
	b := item.b
	n := int64(len(b))
	st := &sh.stats
	if sq.q.join == nil && b[0].Stream == sq.q.spec.Source {
		cb := sh.cb
		if sh.cbStale {
			cb.Reset(b)
			sh.cbStale = false
		} else {
			cb.ResetSel()
		}
		sq.results.Add(int64(sq.q.runBatch(cb)))
		st.kernelTuples.Add(n)
		st.kernelIn.Add(n)
		st.kernelOut.Add(int64(cb.Len()))
	} else {
		streamName, results := b[0].Stream, 0
		for i := range b {
			results += sq.q.Feed(streamName, b[i])
		}
		sq.results.Add(int64(results))
		st.interpTuples.Add(n)
	}
	st.batches.Add(1)
	st.tuples.Add(n)
	end := time.Now()
	el := end.Sub(start)
	sq.busyNs.Add(el.Nanoseconds())
	sq.proc.ObserveN(el.Seconds(), n)
	sq.delay.ObserveN(end.Sub(item.arrived).Seconds(), n)
	return end
}

// processCtl executes one control item.
func (sh *shard) processCtl(c *shardCtl) {
	defer close(c.done)
	sh.stats.ctlItems.Add(1)
	if !c.enq.IsZero() {
		sh.stats.ctlWaitNs.Add(time.Since(c.enq).Nanoseconds())
	}
	if c.op == shardCtlAdapt {
		for _, sq := range c.sqs {
			if sq.installed && MaybeReorder(sq.q, c.minGain) {
				c.changed++
			}
		}
		return
	}
	sq := c.sq
	if c.op == shardCtlInstall {
		sq.installed = true
		sh.stats.queries.Add(1)
		return
	}
	if !sq.installed {
		c.err = fmt.Errorf("engine %s: unknown query %s", sh.eng.name, sq.q.ID())
		return
	}
	switch c.op {
	case shardCtlUninstall:
		sq.installed = false
		sh.stats.queries.Add(-1)
	case shardCtlSnapshot:
		c.snap = snapshotQuery(sq.q)
	case shardCtlRestore:
		c.err = restoreQuery(sq.q, c.restore)
	case shardCtlBytes:
		c.bytes = queryStateBytes(sq.q)
	}
}

var (
	_ Processor        = (*ShardEngine)(nil)
	_ BatchRegistrar   = (*ShardEngine)(nil)
	_ GroupFeeder      = (*ShardEngine)(nil)
	_ Reporter         = (*ShardEngine)(nil)
	_ Adapter          = (*ShardEngine)(nil)
	_ StateSnapshotter = (*ShardEngine)(nil)
)
