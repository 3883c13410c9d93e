// Lock order. An engine runs emit callbacks on its own goroutines, and
// its control calls (Register, Unregister, state snapshots, Drain) wait
// for those goroutines; the entity calls into engines from many paths.
// So the two sides must never wait for each other:
//
//   - never call into an engine with Entity.mu held — copy what the call
//     needs under the lock, release it, then call;
//   - never take Entity.mu from an engine callback — the result sink is
//     an atomic pointer for exactly this reason.
//
// Breaking both at once wedged a /metrics scrape (Load under Entity.mu,
// waiting for the engine) against a result tuple (emit inside the
// engine, waiting for Entity.mu), and a placement (a shard control item
// enqueued under Entity.mu) against the shard loop's emit. With the
// emit closure off the mutex both cycles are gone; the first half of
// the rule also keeps a slow engine from stalling Ingest.

package entity

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/engine"
	"sspd/internal/metrics"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
)

// Message kinds on the intra-entity network.
const (
	// KindFeedBatch carries an addressed batch: the IDs of the query
	// fragments it feeds followed by one encoded batch. The delegation
	// fan-out and every fragment boundary between processors use it, so
	// a batch stays one message per remote processor, not one per
	// fragment or tuple.
	KindFeedBatch = "ent.feedb"
	// KindIngest carries a batch for a stream's delegation processor.
	KindIngest = "ent.ingest"
)

// EngineFactory builds the processing engine for one processor. It lets
// an entity run any engine (the platform-independence requirement).
type EngineFactory func(name string, catalog *stream.Catalog) engine.Processor

// Entity is the runtime intra-entity layer: n processors joined by the
// entity's local network, with per-stream delegation processors, query
// fragments placed across processors, and addressed tuple routing
// between consecutive fragments.
type Entity struct {
	id        string
	transport simnet.Transport
	catalog   *stream.Catalog

	// procs is immutable after New, so it is read without mu.
	procs []*procNode

	// placeMu serializes placements, so placeWith can register fragments
	// with their engines outside mu and still publish a query atomically.
	placeMu sync.Mutex

	mu      sync.Mutex
	deleg   map[string]int // stream name -> processor index
	queries map[string]*placedQuery

	// results receives (queryID, batch) for every run of a final
	// fragment that has results. Engine emit callbacks load it, so it is
	// not guarded by mu.
	results atomic.Pointer[func(string, stream.Batch)]

	// log receives the entity's events (SetLogger); engine-side and
	// transport-side goroutines load it, so it is not guarded by mu.
	log atomic.Pointer[obslog.Logger]

	// dedup seeds new ingest gates' (stream, seq) high-water filtering
	// (see SetIngestDedup).
	dedup bool

	// routingReplicas/routingExplore configure tuple-routed placement
	// for subsequent PlaceQuery/PrepareQuery calls (SetTupleRouting);
	// replicas <= 1 keeps the paper's static-ordering baseline.
	routingReplicas int
	routingExplore  int

	// Delivered counts result tuples across all queries.
	Delivered metrics.Counter
	// Suppressed counts the rows the delegation fan-out kept off remote
	// processors: per remote processor whose gates shared an admitted
	// batch, the rows no head fragment it hosts is interested in (see
	// ingest).
	Suppressed metrics.Counter
	closed     bool
}

type procNode struct {
	idx int
	id  simnet.NodeID
	eng engine.Processor
	// Optional engine capabilities, asserted once in New; nil when the
	// engine lacks one.
	reporter engine.Reporter
	adapter  engine.Adapter
	state    engine.StateSnapshotter
	drainer  drainer
	// group is the engine's grouped feed, or the per-query loop for an
	// engine without the capability; reg its batch registration, or
	// Register with a batch of one per result.
	group  engine.GroupFeeder
	reg    engine.BatchRegistrar
	entity *Entity
	// leases says the engine takes leased feeds itself (it is a
	// GroupFeeder), so rows may reach it in a pooled arena.
	leases bool
	// seals is the set of fragments this processor hosts that seal their
	// results (QuerySpec.SealsResults), when leases is set; empty
	// otherwise. A published set is immutable: the writers (placeWith and
	// RemoveQuery, under Entity.mu) store a fresh one through setSeal, and
	// the fan-out table and the frame decoder read it lock-free.
	seals atomic.Pointer[map[string]bool]
	// fanout lists, per stream delegated to this processor, the head
	// fragments (fragment 0 of each query consuming it) to feed, grouped
	// by hosting processor. A published table is immutable: ingest loads
	// it without a lock, and the writers (placeWith and RemoveQuery, both
	// under Entity.mu) store a fresh one through setTarget.
	fanout atomic.Pointer[map[string]*fanoutStream]
	// scratch is the routing scratch of the last ingest to finish, taken
	// by the next one; an ingest that finds it taken (two run at once: the
	// relay's delivery and an ent.ingest frame) routes through its own. It
	// is not a sync.Pool, which the race detector empties at random.
	scratch atomic.Pointer[routeScratch]
	// dec decodes the frames other processors send this one into batches
	// the engine keeps (stream.DecodeBuffer's owned form) or releases (its
	// leased form, when the frame's fragments all seal). It is the
	// processor's own, not a pooled one, because its intern table and its
	// fragment lists are what must last from frame to frame. decMu is
	// taken once per frame and is all but uncontended: SimNet runs a
	// node's handler serially, TCP on one goroutine per connection.
	decMu sync.Mutex
	dec   frameDecoder
	// feedErrs and ingestErrs count the ent.feedb and ent.ingest frames
	// handle could not decode and dropped (see noteFrame).
	feedErrs, ingestErrs frameErrors
}

// fanoutGroup lists the head fragments one processor hosts for one
// stream. frags is what the hosting engine is handed; gates[i] is the
// ingest gate of frags[i]'s query (see migration.go) and terms[i] that
// query's interest in the stream (placedQuery.interests).
type fanoutGroup struct {
	node  simnet.NodeID
	frags []string
	gates []*ingestGate
	terms []stream.Interest
}

// fanoutStream is one stream's entry in a fan-out table: its groups and,
// once an ingest has needed it, the index that routes the stream's rows
// to the remote groups. Both belong to the table generation; a change to
// the stream's groups is a new entry, and an entry left alone keeps its
// index into the next generation. lent is how ingest copies rows it is
// only lent, decided when the entry is built.
type fanoutStream struct {
	groups []fanoutGroup
	schema *stream.Schema // nil when the catalog does not declare the stream
	route  atomic.Pointer[fanoutRoute]
	lent   lentCopy
}

// lentCopy is the one copy an ingest makes of rows it is lent
// (IngestBatch), by what the stream's local group is.
type lentCopy uint8

const (
	// copyNone: no head fragment of the stream is on the delegation
	// processor, so every target is a frame, encoded before ingest
	// returns, and the lent rows are only read.
	copyNone lentCopy = iota
	// copyLease: every local head fragment seals, so the local engine is
	// done with the rows once its shards have run them: they are copied
	// into a pooled arena (stream.LeaseCopy) it releases.
	copyLease
	// copyOwned: some local head fragment keeps or emits its rows, so they
	// are copied into storage of their own (Batch.Compact).
	copyOwned
)

// fanoutRoute routes a batch of one stream to the remote groups
// (DESIGN.md §13 "Routing inside the entity"). owner[i] is groups[i]'s
// owner in ix, or -1 for a group that takes the whole batch: the local
// one, and one hosting a query that takes every row (a join, say). ix is
// nil when no group has an owner.
type fanoutRoute struct {
	ix    *stream.MatchIndex
	owner []int
}

// routeScratch is what routing a batch needs besides the index: each
// owner's matched rows and the gathered rows of one frame.
type routeScratch struct {
	routed stream.Routed
	sub    stream.Batch
}

// setTarget publishes a fresh table in which stream s feeds head
// fragment frag on node through gate, for a query whose interest in s is
// term, or, with a nil gate, no longer feeds it; no slice of a published
// table is written to.
func (p *procNode) setTarget(s, frag string, node simnet.NodeID, gate *ingestGate, term stream.Interest) {
	old := *p.fanout.Load()
	tbl := make(map[string]*fanoutStream, len(old)+1)
	for k, v := range old {
		tbl[k] = v
	}
	var prev []fanoutGroup
	if fs := old[s]; fs != nil {
		prev = fs.groups
	}
	groups := make([]fanoutGroup, 0, len(prev)+1)
	for _, g := range prev { // g is a copy; a group left alone shares its lists
		if i := slices.Index(g.frags, frag); i >= 0 {
			g.frags = slices.Delete(slices.Clone(g.frags), i, i+1)
			g.gates = slices.Delete(slices.Clone(g.gates), i, i+1)
			g.terms = slices.Delete(slices.Clone(g.terms), i, i+1)
		}
		if gate != nil && g.node == node {
			g.frags = append(g.frags[:len(g.frags):len(g.frags)], frag)
			g.gates = append(g.gates[:len(g.gates):len(g.gates)], gate)
			g.terms = append(g.terms[:len(g.terms):len(g.terms)], term)
			gate = nil
		}
		if len(g.frags) > 0 {
			groups = append(groups, g)
		}
	}
	if gate != nil {
		groups = append(groups, fanoutGroup{node: node, frags: []string{frag},
			gates: []*ingestGate{gate}, terms: []stream.Interest{term}})
	}
	if len(groups) == 0 {
		delete(tbl, s)
	} else {
		sc, _ := p.entity.catalog.Lookup(s)
		tbl[s] = &fanoutStream{groups: groups, schema: sc, lent: p.lentCopy(groups)}
	}
	p.fanout.Store(&tbl)
}

// lentCopy decides how an ingest over groups copies lent rows, from the
// head fragments the processor hosts itself (at most one group).
func (p *procNode) lentCopy(groups []fanoutGroup) lentCopy {
	seals := *p.seals.Load()
	for _, g := range groups {
		if g.node != p.id {
			continue
		}
		for _, frag := range g.frags {
			if !seals[frag] {
				return copyOwned
			}
		}
		return copyLease
	}
	return copyNone
}

// setSeal publishes a fresh seal set in which frag, hosted here, seals
// or no longer does. Caller holds Entity.mu.
func (p *procNode) setSeal(frag string, on bool) {
	old := *p.seals.Load()
	if old[frag] == on {
		return
	}
	tbl := make(map[string]bool, len(old)+1)
	for k := range old {
		tbl[k] = true
	}
	if on {
		tbl[frag] = true
	} else {
		delete(tbl, frag)
	}
	p.seals.Store(&tbl)
}

// router returns the entry's route, building it on the first call: after
// a placement, not in it, so a run of placements pays one build per
// stream and not one per query. Two ingests may build at once; both
// routes are the same, and the first published is the one kept.
func (fs *fanoutStream) router(self simnet.NodeID) *fanoutRoute {
	if rt := fs.route.Load(); rt != nil {
		return rt
	}
	rt := &fanoutRoute{owner: make([]int, len(fs.groups))}
	var owners []*stream.InterestSet
	for i, g := range fs.groups {
		rt.owner[i] = -1
		if g.node == self || fs.schema == nil {
			continue
		}
		set := &stream.InterestSet{Stream: fs.schema.Name()}
		for _, term := range g.terms {
			// A query with no interest in the stream is a query on a stream
			// the catalog did not declare when it was placed: like one that
			// wants every row, it takes the whole batch.
			if term.Stream != set.Stream || term.Unconstrained() {
				set = nil
				break
			}
			set.Terms = append(set.Terms, term)
		}
		if set != nil {
			rt.owner[i] = len(owners)
			owners = append(owners, set)
		}
	}
	if len(owners) > 0 {
		rt.ix = stream.NewMatchIndex(fs.schema.Name(), fs.schema, owners)
	}
	if !fs.route.CompareAndSwap(nil, rt) {
		rt = fs.route.Load()
	}
	return rt
}

type placedQuery struct {
	spec engine.QuerySpec
	// interests is the query's data interest in each of its input
	// streams (QuerySpec.Interest), computed once at placement: the
	// entity's aggregate is read on every submit and remove, for every
	// hosted query. The terms are shared with Interest's callers and
	// never modified.
	interests map[string]stream.Interest
	frags     []engine.QuerySpec
	procs     []int // processor index per fragment instance
	// stages maps each frags/procs entry back to its pipeline stage:
	// tuple-routed placements register several replica instances per
	// middle stage, and the per-stage view keeps metrics honest (a
	// tuple traverses ONE instance per stage, so replica means average
	// within a stage rather than summing).
	stages []int
	// routes lists the candidate bindings of every routed fragment
	// boundary (empty for static placements).
	routes []RouteBinding
	// gate buffers head-fragment input while the query is paused (a
	// handoff or a checkpoint, DESIGN.md §10).
	gate *ingestGate
}

// RouteBinding describes one candidate edge of a tuple-routed fragment
// boundary: tuples leaving the boundary's upstream stage are routed by
// Chooser among the boundary's Candidate fragment instances. The
// federation's AM plane rebuilds its copy-on-write candidate→chooser
// table from these after every placement change and Reports
// trace-measured per-candidate delays back into Chooser.
type RouteBinding struct {
	// Query is the placed query's ID.
	Query string
	// Boundary is the downstream stage's base fragment ID ("q#1").
	Boundary string
	// Candidate is this replica instance's ID as registered with its
	// engine ("q#1@r0") — the node routed trace hops carry.
	Candidate string
	// Proc is the hosting processor index.
	Proc int
	// Chooser is the boundary's shared routing state (one chooser per
	// boundary; all upstream instances route through it so delay
	// statistics pool across senders).
	Chooser *DownstreamChooser
}

// drainer is the optional capability of waiting until an asynchronous
// engine has processed everything handed to it.
type drainer interface{ Drain(time.Duration) bool }

// New creates an entity with nProcs processors, each running an engine
// built by factory (nil uses the production engine, engine.New).
// Processor endpoints are registered on the transport as "<id>/p<i>".
func New(id string, transport simnet.Transport, catalog *stream.Catalog,
	nProcs int, factory EngineFactory) (*Entity, error) {
	if id == "" || transport == nil || catalog == nil {
		return nil, fmt.Errorf("entity: need id, transport, and catalog")
	}
	if nProcs < 1 {
		nProcs = 1
	}
	if factory == nil {
		factory = func(name string, c *stream.Catalog) engine.Processor {
			return engine.New(name, c)
		}
	}
	e := &Entity{
		id:        id,
		transport: transport,
		catalog:   catalog,
		deleg:     make(map[string]int),
		queries:   make(map[string]*placedQuery),
	}
	e.log.Store(obslog.Default())
	for i := 0; i < nProcs; i++ {
		eng := factory(fmt.Sprintf("%s/p%d", id, i), catalog)
		p := &procNode{
			idx:    i,
			id:     simnet.NodeID(fmt.Sprintf("%s/p%d", id, i)),
			eng:    eng,
			entity: e,
			group:  engine.GroupFeederOf(eng),
			reg:    engine.BatchRegistrarOf(eng),
		}
		p.fanout.Store(&map[string]*fanoutStream{})
		p.seals.Store(&map[string]bool{})
		_, p.leases = eng.(engine.GroupFeeder)
		p.reporter, _ = eng.(engine.Reporter)
		p.adapter, _ = eng.(engine.Adapter)
		p.state, _ = eng.(engine.StateSnapshotter)
		p.drainer, _ = eng.(drainer)
		if err := transport.Register(p.id, p.handle); err != nil {
			eng.Close()
			e.Close()
			return nil, err
		}
		e.procs = append(e.procs, p)
	}
	return e, nil
}

// Proc exposes processor i's engine; experiments and tests read
// per-processor statistics through it. It panics on a bad index,
// matching slice semantics.
func (e *Entity) Proc(i int) engine.Processor { return e.procs[i].eng }

// SetResultHandler installs the sink for final query results: fn is
// called once per run of a query's final fragment that has results, with
// the batch borrowed for the call (engine.BatchRegistrar) — fn may keep
// its tuples, not the slice.
func (e *Entity) SetResultHandler(fn func(queryID string, b stream.Batch)) {
	if fn == nil {
		e.results.Store(nil)
		return
	}
	e.results.Store(&fn)
}

// SetLogger routes the entity's events to l instead of obslog.Default();
// a nil logger drops them.
func (e *Entity) SetLogger(l *obslog.Logger) { e.log.Store(l) }

// Delegation returns the endpoint of the processor delegated for a
// stream, assigning one (least-delegated-streams first) on first use —
// the paper's answer to "one processor cannot receive all streams".
func (e *Entity) Delegation(streamName string) simnet.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.procs[e.delegationLocked(streamName)].id
}

func (e *Entity) delegationLocked(streamName string) int {
	if idx, ok := e.deleg[streamName]; ok {
		return idx
	}
	counts := make([]int, len(e.procs))
	for _, idx := range e.deleg {
		counts[idx]++
	}
	best := 0
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[best] {
			best = i
		}
	}
	e.deleg[streamName] = best
	return best
}

// ForceDelegation pins a stream's delegation to a specific processor.
// The delegation experiment uses it to model the single-receiver
// baseline (every stream delegated to processor 0). It must be called
// before queries on that stream are placed.
func (e *Entity) ForceDelegation(streamName string, procIdx int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if procIdx < 0 || procIdx >= len(e.procs) {
		return fmt.Errorf("entity %s: processor index %d out of range", e.id, procIdx)
	}
	e.deleg[streamName] = procIdx
	return nil
}

// Ingest hands one tuple of a stream to the entity (the dissemination
// relay's deliver callback). The tuple goes to the stream's delegation
// processor, which fans it out to every processor hosting a fragment-0
// consumer.
func (e *Entity) Ingest(t stream.Tuple) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	idx := e.delegationLocked(t.Stream)
	p := e.procs[idx]
	e.mu.Unlock()
	p.ingest(stream.Batch{t})
}

// IngestBatch is Ingest for a whole batch, lent for the call — the
// relay's DeliverBatch: the entity copies what it keeps before it
// returns (procNode.ingestLent). Relay deliveries are always
// single-stream, so that case routes with one delegation lookup and no
// grouping allocations.
func (e *Entity) IngestBatch(b stream.Batch) {
	if len(b) == 0 {
		return
	}
	single := true
	for i := 1; i < len(b); i++ {
		if b[i].Stream != b[0].Stream {
			single = false
			break
		}
	}
	if single {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		p := e.procs[e.delegationLocked(b[0].Stream)]
		e.mu.Unlock()
		p.ingestLent(b)
		return
	}
	byStream := make(map[string]stream.Batch)
	for _, t := range b {
		byStream[t.Stream] = append(byStream[t.Stream], t)
	}
	streams := make([]string, 0, len(byStream))
	for s := range byStream {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	for _, s := range streams {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		p := e.procs[e.delegationLocked(s)]
		e.mu.Unlock()
		p.ingestLent(byStream[s])
	}
}

// PlaceQuery splits the query into nFrags fragments and registers them
// across processors: fragments go to the least-loaded processors,
// contiguously, at most spec-distribution-limit many (nFrags already
// encodes the caller's choice). Fragment outputs chain via addressed
// transport messages; the final fragment's results reach the entity's
// result handler.
func (e *Entity) PlaceQuery(spec engine.QuerySpec, nFrags int) error {
	return e.place(spec, nFrags, false)
}

// place is PlaceQuery with control over the query's initial gate state:
// paused placements buffer head-fragment input until ResumeQuery opens
// the gate — the destination of a handoff. It picks up the entity's
// tuple-routing configuration (SetTupleRouting), so routed placement
// flows through the handoff machinery unchanged.
func (e *Entity) place(spec engine.QuerySpec, nFrags int, paused bool) error {
	e.mu.Lock()
	cfg := placeConfig{paused: paused, replicas: e.routingReplicas, explore: e.routingExplore}
	e.mu.Unlock()
	return e.placeWith(spec, nFrags, cfg)
}

// SetTupleRouting makes every subsequent placement (PlaceQuery and the
// migration path's PrepareQuery) replicate middle fragments on
// `replicas` processors with per-tuple adaptive routing between stages
// — the candidate-set half of Section 4.2. replicas <= 1 restores the
// static-ordering baseline. Routed boundaries expect delay feedback
// through RouteBindings (the federation's AM plane Reports
// trace-measured per-candidate delays); without feedback the chooser's
// cold-start rotation degrades to round-robin balancing.
func (e *Entity) SetTupleRouting(replicas, explore int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.routingReplicas = replicas
	e.routingExplore = explore
}

// RouteBindings lists every routed fragment boundary's candidate
// bindings across placed queries, sorted by query then candidate.
func (e *Entity) RouteBindings() []RouteBinding {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.queries))
	for id := range e.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []RouteBinding
	for _, id := range ids {
		out = append(out, e.queries[id].routes...)
	}
	return out
}

// placeConfig controls one placement: initial gate state, middle-stage
// replication, and the feedback mode of routed boundaries.
type placeConfig struct {
	paused   bool
	replicas int
	explore  int
	// probe makes routed emits report the candidate engine's
	// instantaneous load inline (the in-process probe mode
	// PlaceQueryAdaptive uses). The federation instead leaves feedback
	// to trace-measured delays via RouteBindings, as the paper's AM
	// collects delay statistics from downstream acknowledgements.
	probe bool
}

// placeWith is the one placement path: static chains and tuple-routed
// replicated placements differ only in placeConfig. Fragment 0 (fed by
// the delegation fan-out) and the final fragment (which may hold
// stateful operators and must not duplicate results) always get one
// instance; with replicas > 1 every middle fragment — a stateless
// filter stage, so any replica produces identical output for a tuple —
// is registered on `replicas` processors under ordinal instance IDs
// ("q#1@r0"), and each upstream stage routes every output tuple through
// the boundary's shared DownstreamChooser.
//
// Fragments register with their engines outside e.mu (the lock-order
// rule at the top of this file); placeMu keeps a second placement of
// the same ID from slipping in between the duplicate check and the
// publication at the end.
func (e *Entity) placeWith(spec engine.QuerySpec, nFrags int, cfg placeConfig) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	if cfg.explore <= 0 {
		cfg.explore = 32
	}
	e.placeMu.Lock()
	defer e.placeMu.Unlock()
	e.mu.Lock()
	closed := e.closed
	_, dup := e.queries[spec.ID]
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("entity %s: closed", e.id)
	}
	if dup {
		return fmt.Errorf("entity %s: query %s already placed", e.id, spec.ID)
	}
	if cfg.replicas > len(e.procs) {
		cfg.replicas = len(e.procs)
	}
	frags := SplitSpec(spec, nFrags)
	// Choose processors: least-loaded first, instances dealt across
	// that order, reusing processors round-robin when instances
	// outnumber them. Middle fragments take `replicas` consecutive
	// processors.
	loads := e.ProcLoads()
	order := make([]int, len(e.procs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := loads[order[a]], loads[order[b]]
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	type instance struct {
		spec engine.QuerySpec
		proc int
	}
	stages := make([][]instance, len(frags))
	cursor := 0
	for i := range frags {
		n := 1
		if cfg.replicas > 1 && i > 0 && i < len(frags)-1 {
			n = cfg.replicas
		}
		for r := 0; r < n; r++ {
			inst := instance{spec: frags[i], proc: order[cursor%len(order)]}
			if n > 1 {
				// Ordinal replica IDs keep each instance separately
				// addressable on its engine while migration endpoints
				// with the same configuration agree on the ID set.
				inst.spec.ID = fmt.Sprintf("%s@r%d", frags[i].ID, r)
			}
			stages[i] = append(stages[i], inst)
			cursor++
		}
	}

	pq := &placedQuery{spec: spec, gate: &ingestGate{paused: cfg.paused}}
	pq.interests = make(map[string]stream.Interest, 2)
	for _, s := range spec.Streams() {
		if sc, ok := e.catalog.Lookup(s); ok {
			pq.interests[s] = spec.Interest(s, sc)
		}
	}
	queryID := spec.ID

	// One shared chooser per routed boundary (keyed by downstream
	// stage), built lazily by the first upstream instance that needs it.
	choosers := make(map[int]*DownstreamChooser)
	chooserFor := func(stage int) (*DownstreamChooser, error) {
		if c, ok := choosers[stage]; ok {
			return c, nil
		}
		ids := make([]string, len(stages[stage]))
		for i, inst := range stages[stage] {
			ids[i] = inst.spec.ID
		}
		c, err := NewDownstreamChooser(ids, cfg.explore)
		if err != nil {
			return nil, err
		}
		choosers[stage] = c
		return c, nil
	}
	// emitFor builds the emit closure for one instance of stage i. A
	// closure is handed one run's results, borrowed (engine.BatchRegistrar):
	// a boundary that hands them to an engine, which keeps what it is fed,
	// hands over a slice of its own; a frame only reads them.
	emitFor := func(i int, from *procNode) (func(stream.Batch), error) {
		if i == len(frags)-1 {
			return func(b stream.Batch) {
				e.Delivered.Add(int64(len(b)))
				if b.HasSpan() {
					for _, t := range b {
						trace.Record(trace.SpanID(t.Span), trace.StageResult, queryID)
					}
				}
				if fn := e.results.Load(); fn != nil {
					(*fn)(queryID, b)
				}
			}, nil
		}
		next := stages[i+1]
		if len(next) == 1 {
			to, nextFrag := e.procs[next[0].proc], []string{next[0].spec.ID}
			if to == from {
				// Same processor: one feed, no network hop.
				return func(b stream.Batch) { _ = from.eng.FeedQueryBatch(nextFrag[0], slices.Clone(b)) }, nil
			}
			return func(b stream.Batch) { from.feed(to.id, nextFrag, b, nil, false) }, nil
		}
		// Routed boundary: per-tuple adaptive choice among the next
		// stage's replicas (Section 4.2), then one hand-over per chosen
		// replica. The decision itself reads no clock — sampled tuples get
		// a StageOperator hop stamped under the chosen instance ID (free
		// for untraced tuples, Span == 0 fast path), and the AM plane
		// Reports the measured hop delta back into the chooser from span
		// completions.
		chooser, err := chooserFor(i + 1)
		if err != nil {
			return nil, err
		}
		ids := make([]string, len(next))
		targets := make([]*procNode, len(next))
		index := make(map[string]int, len(next))
		for k, inst := range next {
			ids[k], targets[k], index[inst.spec.ID] = inst.spec.ID, e.procs[inst.proc], k
		}
		probe := cfg.probe
		return func(b stream.Batch) {
			// The sub-batches are this call's own: an engine may run the
			// closure on several goroutines at once, and the engine fed
			// one keeps it.
			parts := make([]stream.Batch, len(ids))
			for _, t := range b {
				pick := chooser.Choose()
				k := index[pick]
				if probe {
					// In-process probe mode: score by the candidate
					// engine's instantaneous load (a distributed build
					// would piggyback this statistic on acks, as the
					// paper's AM collects it).
					chooser.Report(pick, targets[k].eng.Load())
				}
				trace.Record(trace.SpanID(t.Span), trace.StageOperator, pick)
				parts[k] = append(parts[k], t)
			}
			for k, part := range parts {
				switch {
				case len(part) == 0:
				case targets[k] == from:
					_ = from.eng.FeedQueryBatch(ids[k], part)
				default:
					from.feed(targets[k].id, ids[k:k+1], part, nil, false)
				}
			}
		}, nil
	}

	type reg struct {
		proc int
		id   string
	}
	var registered []reg
	rollback := func() {
		for _, r := range registered {
			_, _ = e.procs[r.proc].eng.Unregister(r.id)
		}
	}
	// Register back to front so each stage's emit can target the next.
	for i := len(frags) - 1; i >= 0; i-- {
		for _, inst := range stages[i] {
			p := e.procs[inst.proc]
			emit, err := emitFor(i, p)
			if err != nil {
				rollback()
				return err
			}
			if err := p.reg.RegisterBatch(inst.spec, emit); err != nil {
				rollback()
				return fmt.Errorf("entity %s: placing %s: %w", e.id, inst.spec.ID, err)
			}
			registered = append(registered, reg{proc: inst.proc, id: inst.spec.ID})
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		// Closed while the fragments registered; Close is closing the
		// engines, which unregisters them.
		return fmt.Errorf("entity %s: closed", e.id)
	}
	pq.gate.dedup = e.dedup // nothing else can reach the gate yet
	// The seal sets first: the fan-out entries built below read them.
	for i := range stages {
		for _, inst := range stages[i] {
			if p := e.procs[inst.proc]; p.leases && inst.spec.SealsResults() {
				p.setSeal(inst.spec.ID, true)
			}
		}
	}
	// Delegation fan-out: fragment 0's single instance consumes the
	// source stream(s) through the query's gate.
	head := stages[0][0]
	headProc := e.procs[head.proc]
	for _, s := range head.spec.Streams() {
		e.procs[e.delegationLocked(s)].setTarget(s, head.spec.ID, headProc.id, pq.gate, pq.interests[s])
	}
	// Flatten instances into the (fragment, processor, stage) triples
	// the removal/snapshot/metrics paths iterate.
	for i := range stages {
		for _, inst := range stages[i] {
			pq.frags = append(pq.frags, inst.spec)
			pq.procs = append(pq.procs, inst.proc)
			pq.stages = append(pq.stages, i)
		}
	}
	for stage, ch := range choosers {
		for _, inst := range stages[stage] {
			pq.routes = append(pq.routes, RouteBinding{
				Query:     queryID,
				Boundary:  frags[stage].ID,
				Candidate: inst.spec.ID,
				Proc:      inst.proc,
				Chooser:   ch,
			})
		}
	}
	sort.Slice(pq.routes, func(a, b int) bool { return pq.routes[a].Candidate < pq.routes[b].Candidate })
	e.queries[spec.ID] = pq
	return nil
}

// RemoveQuery unregisters all fragments of a query and returns its spec
// for re-placement elsewhere (query-level migration).
func (e *Entity) RemoveQuery(id string) (engine.QuerySpec, error) {
	e.mu.Lock()
	pq, ok := e.queries[id]
	if !ok {
		e.mu.Unlock()
		return engine.QuerySpec{}, fmt.Errorf("entity %s: unknown query %s", e.id, id)
	}
	delete(e.queries, id)
	for i, frag := range pq.frags {
		e.procs[pq.procs[i]].setSeal(frag.ID, false)
	}
	head := pq.frags[0]
	for _, s := range head.Streams() {
		if di, ok := e.deleg[s]; ok {
			e.procs[di].setTarget(s, head.ID, "", nil, stream.Interest{})
		}
	}
	procs := make([]*procNode, len(pq.frags))
	for i := range pq.frags {
		procs[i] = e.procs[pq.procs[i]]
	}
	e.mu.Unlock()
	for i, frag := range pq.frags {
		if _, err := procs[i].eng.Unregister(frag.ID); err != nil {
			return engine.QuerySpec{}, err
		}
	}
	return pq.spec, nil
}

// QueryPlacement reports which processor indexes host each fragment of a
// query.
func (e *Entity) QueryPlacement(id string) ([]int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pq, ok := e.queries[id]
	if !ok {
		return nil, false
	}
	out := make([]int, len(pq.procs))
	copy(out, pq.procs)
	return out, true
}

// QueryPerf reports a placed query's measured delay d and processing
// time p in seconds, summed over its stages (a tuple traverses every
// stage in sequence, so per-stage means add). A routed stage's replicas
// each see a share of the traffic, so the stage mean pools their raw
// Sum/Count instead of adding per-replica means — adding would count
// the stage once per replica. ok is false when the query is unknown or
// its engines expose no metrics (e.g. MiniEngine). The federation's
// metrics collector divides the two into the paper's per-query
// Performance Ratio PR_k = d_k / p_k.
func (e *Entity) QueryPerf(id string) (d, p float64, ok bool) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, 0, false
	}
	frags, stages := pq.frags, pq.stages
	nStages := 0
	for _, s := range stages {
		if s+1 > nStages {
			nStages = s + 1
		}
	}
	dSum := make([]float64, nStages)
	dCount := make([]float64, nStages)
	pSum := make([]float64, nStages)
	pCount := make([]float64, nStages)
	for i, frag := range frags {
		if procs[i].reporter == nil {
			return 0, 0, false
		}
		m, has := procs[i].reporter.Metrics(frag.ID)
		if !has {
			return 0, 0, false
		}
		s := stages[i]
		dSum[s] += m.Delay.Sum
		dCount[s] += float64(m.Delay.Count)
		pSum[s] += m.Processing.Sum
		pCount[s] += float64(m.Processing.Count)
		ok = true
	}
	for s := 0; s < nStages; s++ {
		if dCount[s] > 0 {
			d += dSum[s] / dCount[s]
		}
		if pCount[s] > 0 {
			p += pSum[s] / pCount[s]
		}
	}
	return d, p, ok
}

// QueryWork reports a placed query's cumulative measured work: total
// engine busy time in seconds and result tuples emitted, summed over its
// fragments. The stats plane differentiates successive readings into a
// measured load (busy seconds per second) for the cluster digest. ok is
// false when the query is unknown or its engines expose no metrics
// (e.g. MiniEngine) — callers then fall back to the spec's estimate.
func (e *Entity) QueryWork(id string) (busySeconds float64, results int64, ok bool) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, 0, false
	}
	for i, frag := range pq.frags {
		if procs[i].reporter == nil {
			return 0, 0, false
		}
		m, has := procs[i].reporter.Metrics(frag.ID)
		if !has {
			return 0, 0, false
		}
		busySeconds += m.Busy
		results += m.Results
		ok = true
	}
	return busySeconds, results, ok
}

// QueryDrops reports the tuples dropped for a placed query by its
// hosting engines' full shard rings, summed over fragments. ok is false
// when the query is unknown or no hosting engine reports drops (e.g.
// MiniEngine, which never drops).
func (e *Entity) QueryDrops(id string) (dropped int64, ok bool) {
	pq, procs, err := e.lookupQuery(id)
	if err != nil {
		return 0, false
	}
	for i, frag := range pq.frags {
		if procs[i].reporter == nil {
			continue
		}
		dropped += procs[i].reporter.Dropped(frag.ID)
		ok = true
	}
	return dropped, ok
}

// EngineTelemetry merges the introspection snapshots of every processor
// whose engine exposes one (DESIGN.md §14). ok is false when no engine
// does (e.g. an entity running only MiniEngines).
func (e *Entity) EngineTelemetry() (engine.EngineStats, bool) {
	var out engine.EngineStats
	var ok bool
	for _, pn := range e.procs {
		if pn.reporter == nil {
			continue
		}
		out.Merge(pn.reporter.EngineStats())
		ok = true
	}
	return out, ok
}

// DroppedTotal sums the engine-lifetime dropped-tuple totals across the
// entity's processors — unlike QueryDrops it includes drops charged to
// queries that have since been unregistered or migrated away.
func (e *Entity) DroppedTotal() int64 {
	var total int64
	for _, pn := range e.procs {
		if pn.reporter != nil {
			total += pn.reporter.TotalDropped()
		}
	}
	return total
}

// Interest returns the entity's aggregated data interest in one stream:
// the union of its placed queries' interests, in query-ID order — what
// the entity registers up the dissemination tree. The terms are the ones
// computed when each query was placed; callers must not modify them.
func (e *Entity) Interest(streamName string) []stream.Interest {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.queries))
	for id, pq := range e.queries {
		if _, ok := pq.interests[streamName]; ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var out []stream.Interest
	for _, id := range ids {
		out = append(out, e.queries[id].interests[streamName])
	}
	return out
}

// Load returns the entity's total engine load — the vertex weight its
// queries contribute to the federation's query graph.
func (e *Entity) Load() float64 {
	sum := 0.0
	for _, p := range e.procs {
		sum += p.eng.Load()
	}
	return sum
}

// ProcLoads returns each processor's current load.
func (e *Entity) ProcLoads() []float64 {
	out := make([]float64, len(e.procs))
	for i, p := range e.procs {
		out[i] = p.eng.Load()
	}
	return out
}

// AdaptOrdering asks every processor engine that supports it (the
// engine.Adapter capability) to re-order its queries' commutable
// operators from observed statistics — the entity-wide Adaptation Module
// sweep. It returns the number of queries whose plan actually changed
// (both engines' AdaptOrdering report applied reorders, so the sum is
// comparable across engine kinds).
func (e *Entity) AdaptOrdering(minGain float64) int {
	n := 0
	for _, p := range e.procs {
		if p.adapter != nil {
			n += p.adapter.AdaptOrdering(minGain)
		}
	}
	return n
}

// Close stops every processor and deregisters the endpoints.
func (e *Entity) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, p := range e.procs {
		_ = e.transport.Deregister(p.id)
		p.eng.Close()
	}
}

// ingest routes a same-stream batch: every processor hosting head
// fragments of the stream gets the batch once, with the list of the
// fragments it feeds — the local engine by a grouped feed, a remote
// processor by one addressed frame. Only a target whose gate returned
// the batch unchanged shares it; a paused gate took it, and a
// dedup-filtered copy is fed to its one fragment alone.
//
// The shared batch is routed first (DESIGN.md §13 "Routing inside the
// entity"): a remote processor's frame holds only the rows, in batch
// order, that match some interest of the head fragments it hosts, and a
// processor no row matches is sent nothing. The gates still admit the
// whole batch, so marks and pause buffers are what they were. The local
// engine takes the whole batch: it costs no copy, and its filters drop
// rows more cheaply than a gather would.
//
// b is the caller's, handed over: the same slice goes to every gate, to
// the local engine (which keeps it, engine.Processor point 2) and into
// every remote frame, so nothing below may write to it. A paused gate
// copies the rows into its buffer (admit), the dedup filter builds a new
// slice (filterLocked), and a routed frame is gathered into the scratch.
// Rows the relay only lends go through ingestLent, which copies first;
// when that copy is a lease, the local engine's feeds take the lease with
// the rows (FeedGroupLease) and frames, encoded before ingest returns,
// never hold it.
func (p *procNode) ingest(b stream.Batch) { p.ingestFrom(b, false) }

// ingestLent is ingest for rows lent for the call (IngestBatch). It makes
// the one copy the rows get on this processor, the way the stream's
// fan-out entry says (fanoutStream.lent): none when no head fragment is
// local, as only frames and gate buffers, which copy, outlast the call;
// a pooled lease when every local one seals, which the local engine
// releases once its shards have run it; else an owned Batch.Compact.
func (p *procNode) ingestLent(b stream.Batch) { p.ingestFrom(b, true) }

func (p *procNode) ingestFrom(b stream.Batch, lent bool) {
	if len(b) == 0 {
		return
	}
	traced := b.HasSpan()
	if traced {
		self := string(p.id)
		for _, t := range b {
			trace.Record(trace.SpanID(t.Span), trace.StageDelegate, self)
		}
	}
	fs := (*p.fanout.Load())[b[0].Stream]
	if fs == nil {
		return
	}
	var l *stream.Lease
	if lent {
		switch fs.lent {
		case copyLease:
			l = stream.LeaseCopy(b)
			defer l.Release()
			b = l.Batch()
		case copyOwned:
			b = b.Compact(nil)
		}
	}
	rt := fs.router(p.id)
	var sc *routeScratch // taken when the first routed group needs it
	suppressed := 0
	// The batch's highest Seq, found once: what every open gate raises
	// its stream's mark to, at one comparison per (gate, batch).
	hi := b[0].Seq
	for i := 1; i < len(b); i++ {
		hi = max(hi, b[i].Seq)
	}
	for gi, g := range fs.groups {
		// With every gate open and nothing stale the published lists are
		// the shared lists, and nothing is allocated here.
		frags, gates := g.frags, g.gates
		split := false
		for i, gate := range g.gates {
			out := gate.admit(b, hi)
			if len(out) == len(b) {
				if split {
					frags, gates = append(frags, g.frags[i]), append(gates, gate)
				}
				continue
			}
			if !split {
				split = true
				frags = append([]string(nil), g.frags[:i]...)
				gates = append([]*ingestGate(nil), g.gates[:i]...)
			}
			if len(out) > 0 {
				p.feed(g.node, g.frags[i:i+1], out, l, traced)
				gate.unfed.Add(-1)
			}
		}
		if len(frags) == 0 {
			continue
		}
		fed := b
		if o := rt.owner[gi]; o >= 0 {
			if sc == nil {
				if sc = p.scratch.Swap(nil); sc == nil {
					sc = new(routeScratch)
				}
				rt.ix.Route(b, &sc.routed)
			}
			rows := sc.routed.Rows(o)
			suppressed += len(b) - len(rows)
			if len(rows) < len(b) {
				sc.sub = sc.sub[:0]
				for _, r := range rows {
					sc.sub = append(sc.sub, b[r])
				}
				fed = sc.sub
			}
		}
		if len(fed) > 0 {
			p.feed(g.node, frags, fed, l, traced)
		}
		for _, gate := range gates {
			gate.unfed.Add(-1)
		}
	}
	if sc != nil {
		p.entity.Suppressed.Add(int64(suppressed))
		p.scratch.Store(sc)
	}
}

// feed hands a batch to the fragments frags on node: the fan-out's
// admitted batches to head fragments, and a fragment boundary's results
// to the next fragment on another processor. l, when non-nil, is the
// lease b's rows live in, which the local engine takes. A remote node
// gets one frame, encoded before feed returns, so b is only read.
func (p *procNode) feed(node simnet.NodeID, frags []string, b stream.Batch, l *stream.Lease, traced bool) {
	if node == p.id {
		p.feedLocal(frags, b, l, traced)
		return
	}
	buf := stream.GetEncodeBuffer()
	for len(frags) > 0 {
		n := min(len(frags), math.MaxUint16) // the frame counts fragments in a uint16
		*buf = encodeFeedBatch((*buf)[:0], frags[:n], b)
		_ = p.entity.transport.Send(p.id, node, KindFeedBatch, *buf)
		frags = frags[n:]
	}
	stream.PutEncodeBuffer(buf)
}

// feedLocal is the grouped feed into this processor's engine, leased
// when l is non-nil; sampled tuples get one operator hop per fragment
// first.
func (p *procNode) feedLocal(frags []string, b stream.Batch, l *stream.Lease, traced bool) {
	if traced {
		for _, frag := range frags {
			for _, t := range b {
				trace.Record(trace.SpanID(t.Span), trace.StageOperator, frag)
			}
		}
	}
	if l != nil {
		p.group.FeedGroupLease(frags, b, l)
		return
	}
	p.group.FeedGroupBatch(frags, b)
}

// handle is the processor's transport callback. A frame that does not
// decode is dropped whole, and counted by kind. An ent.feedb frame whose
// fragments all seal here is decoded into a lease the engine releases.
func (p *procNode) handle(m simnet.Message) {
	switch m.Kind {
	case KindFeedBatch:
		p.decMu.Lock()
		frags, batch, l, err := p.dec.decodeFeedBatch(m.Payload, p.seals.Load())
		p.decMu.Unlock()
		if p.noteFrame(&p.feedErrs, m.Kind, err) {
			p.feedLocal(frags, batch, l, batch.HasSpan())
			if l != nil {
				l.Release()
			}
		}
	case KindIngest:
		p.decMu.Lock()
		batch, _, err := p.dec.DecodeBatch(m.Payload)
		p.decMu.Unlock()
		if p.noteFrame(&p.ingestErrs, m.Kind, err) {
			p.ingest(batch)
		}
	}
}

// frameErrors is one frame kind's decode failures on one processor: how
// many, and whether the last frame of the kind was one.
type frameErrors struct {
	n   metrics.Counter
	bad atomic.Bool
}

// noteFrame accounts the outcome of decoding one frame of the kind fe
// counts and reports whether it decoded. An undecodable frame loses a
// whole batch for every fragment it names, so it is counted
// (FrameDecodeErrors) and logged — on the kind's good→bad transition and
// on its recovery only, like the relay's decode errors. The healthy path
// is one atomic load per frame.
func (p *procNode) noteFrame(fe *frameErrors, kind string, err error) bool {
	if err != nil {
		fe.n.Inc()
		if !fe.bad.Swap(true) {
			p.entity.log.Load().Warn("decode.bad", string(p.id), "dropping undecodable frames (logging once until recovery)",
				"kind", kind, "err", err)
		}
		return false
	}
	if fe.bad.Load() && fe.bad.Swap(false) {
		p.entity.log.Load().Warn("decode.ok", string(p.id), "frames decoding again", "kind", kind)
	}
	return true
}

// FrameDecodeErrors reports, per intra-entity frame kind, how many frames
// the entity's processors dropped because they did not decode.
func (e *Entity) FrameDecodeErrors() map[string]int64 {
	out := map[string]int64{KindFeedBatch: 0, KindIngest: 0}
	for _, p := range e.procs {
		out[KindFeedBatch] += p.feedErrs.n.Value()
		out[KindIngest] += p.ingestErrs.n.Value()
	}
	return out
}

// encodeFeedBatch frames an addressed batch onto dst:
// uint16 n | n × (uint16 len(frag) | frag) | batch.
func encodeFeedBatch(dst []byte, frags []string, b stream.Batch) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(frags)))
	for _, frag := range frags {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(frag)))
		dst = append(dst, frag...)
	}
	return stream.AppendBatch(dst, b)
}

// frameDecoder is a processor's decoder for the frames it is sent: the
// batch codec's DecodeBuffer plus the fragment lists of the ent.feedb
// frames it has decoded, by ID section. A sender addresses the same
// fragments frame after frame, so a section seen before decodes to the
// list it did then — nothing allocated, and a list the engine's grouped
// feed has resolved before. A list is never written once returned.
type frameDecoder struct {
	stream.DecodeBuffer
	lists map[string]*frameList
}

// frameList is one ID section's fragment list, and whether every one of
// them seals by sealsOf, the processor's seal set it was last held
// against: a placement publishes a new set, and the next frame finds the
// answer stale and asks again, so a frame in between asks nothing.
type frameList struct {
	frags   []string
	seals   bool
	sealsOf *map[string]bool
}

// maxFrameLists bounds the ID sections a frameDecoder keeps. The lists a
// processor is sent change only with placements, so the map is emptied
// when it is full rather than aged.
const maxFrameLists = 64

// decodeFeedBatch decodes an ent.feedb frame. It reads the fragment list
// first, walking the ID section once to check every length against the
// bytes that are left, and only then sizes anything from the count. The
// IDs share one string, so reading the list allocates the same number of
// objects for any count, and none for a section read before. When every
// fragment on the list seals by seals (the processor's seal set) the
// batch is decoded into a lease held once by the caller, else — always,
// for a nil set — into an owned batch.
func (d *frameDecoder) decodeFeedBatch(payload []byte, seals *map[string]bool) ([]string, stream.Batch, *stream.Lease, error) {
	if len(payload) < 2 {
		return nil, nil, nil, fmt.Errorf("entity: truncated feed-batch frame")
	}
	n := int(binary.LittleEndian.Uint16(payload))
	end := 2
	for i := 0; i < n; i++ {
		if len(payload)-end < 2 {
			return nil, nil, nil, fmt.Errorf("entity: truncated feed-batch fragment list")
		}
		end += 2 + int(binary.LittleEndian.Uint16(payload[end:]))
		if end > len(payload) {
			return nil, nil, nil, fmt.Errorf("entity: truncated feed-batch fragment id")
		}
	}
	// The walk above ends further on for every extra entry, so one section
	// holds one count of IDs: a section seen before is the list seen before.
	fl, ok := d.lists[string(payload[2:end])]
	if !ok {
		ids := string(payload[2:end])
		fl = &frameList{frags: make([]string, n)}
		for i, off := 0, 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint16(payload[2+off:]))
			fl.frags[i] = ids[off+2 : off+2+l]
			off += 2 + l
		}
		if d.lists == nil || len(d.lists) >= maxFrameLists {
			d.lists = make(map[string]*frameList)
		}
		d.lists[ids] = fl
	}
	if seals != nil && fl.sealsOf != seals {
		fl.seals, fl.sealsOf = true, seals
		for _, frag := range fl.frags {
			if !(*seals)[frag] {
				fl.seals = false
				break
			}
		}
	}
	if seals == nil || !fl.seals {
		b, _, err := d.DecodeBatch(payload[end:])
		if err != nil {
			return nil, nil, nil, err
		}
		return fl.frags, b, nil, nil
	}
	l, _, err := d.DecodeLease(payload[end:])
	if err != nil {
		return nil, nil, nil, err
	}
	return fl.frags, l.Batch(), l, nil
}
