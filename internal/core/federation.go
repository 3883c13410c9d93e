package core

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/coordinator"
	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/metrics"
	"sspd/internal/obslog"
	"sspd/internal/profile"
	"sspd/internal/querygraph"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
)

// Options configures a federation.
type Options struct {
	// Strategy selects the dissemination-tree shape. The zero value is
	// SourceDirect (a star under the source); Locality builds the
	// paper's distance-aware tree.
	Strategy dissemination.Strategy
	// Fanout bounds dissemination-tree children per node (default 4).
	Fanout int
	// FragmentsPerQuery is how many fragments each query splits into
	// inside its entity (default 1; joins never split).
	FragmentsPerQuery int
	// Logger receives the federation's structured events (obslog). Nil
	// builds a default logger: warnings and errors as slog text on
	// stderr, every event recorded in a bounded journal served at
	// GET /events.
	Logger *obslog.Logger
	// EnableAdaptation puts the adaptation controller on the control
	// clock at Start: every adaptationInterval it runs one AdaptOnce
	// round — the Hybrid repartitioner over the query graph, executing
	// the moves that clear the migration-cost hysteresis check through
	// live migration (DESIGN.md §10).
	EnableAdaptation bool
	// Engine names the engine implementation entities compile queries
	// with when AddEntity/JoinEntity receive a nil factory: "" or
	// "shard" (the production shard-per-core vectorized engine,
	// DESIGN.md §13) or "mini" (the synchronous oracle). An explicit
	// factory always wins.
	Engine string
	// EnableTupleRouting activates the Adaptation Module's per-tuple
	// downstream selection (paper §4.2, DESIGN.md §15): every placement
	// replicates middle query fragments on routingReplicas processors
	// and each inter-fragment tuple is routed to the candidate with the
	// lowest smoothed observed delay. The AM plane feeds the choosers
	// from latency-attribution trace completions, so routing needs
	// EnableTracing to adapt (without it the choosers fall back to
	// round-robin balancing). Off (the default) is the paper's static
	// ordering baseline: one instance per fragment, fixed chain.
	EnableTupleRouting bool
}

// The federation's fixed tuning: each has one value in use.
const (
	// coordinatorK is the coordinator-tree cluster parameter.
	coordinatorK = 3
	// partitionEpsilon is the allocation balance tolerance.
	partitionEpsilon = 0.2
	// routingReplicas is the candidate-set size for middle fragments when
	// tuple routing is enabled.
	routingReplicas = 2
	// routingExplore sends every Nth routed tuple to a non-best candidate
	// so stale delay scores recover.
	routingExplore = 32
	// traceCapacity is how many recent spans the tracer keeps.
	traceCapacity = 2048
	// adaptationInterval is the adaptation controller's decision period.
	adaptationInterval = 2 * time.Second
	// interestRefresh is the soft-state refresh period: every relay
	// re-announces its aggregate interest upward this often.
	interestRefresh = time.Second
	// adaptationHysteresis scales the migration cost a move's gain must
	// exceed before the controller executes it.
	adaptationHysteresis = 1.0
)

// engineFactoryFor resolves an Options.Engine kind to a factory; nil
// with no error means the entity default (the production engine).
func engineFactoryFor(kind string) (entity.EngineFactory, error) {
	switch kind {
	case "", "shard":
		return nil, nil
	case "mini":
		return func(name string, cat *stream.Catalog) engine.Processor {
			return engine.NewMini(name, cat)
		}, nil
	case "async", "sched":
		return nil, fmt.Errorf("core: engine kind %q was removed; use \"shard\" (the default) or \"mini\"", kind)
	default:
		return nil, fmt.Errorf("core: unknown engine kind %q (valid: shard, mini)", kind)
	}
}

func (o Options) normalized() Options {
	if o.Fanout <= 0 {
		o.Fanout = 4
	}
	if o.FragmentsPerQuery <= 0 {
		o.FragmentsPerQuery = 1
	}
	return o
}

// Federation is the running two-layer system (Figure 1): stream sources,
// entities (each an intra-entity cluster wrapped by dissemination
// relays), the coordinator tree that routes the query stream, the query
// graph that drives allocation, and the ledger that pays entities.
type Federation struct {
	transport simnet.Transport
	catalog   *stream.Catalog
	opts      Options

	mu       sync.Mutex
	sources  map[string]*sourceNode
	entities map[string]*entityNode
	coord    *coordinator.Tree
	ledger   *Ledger
	rates    map[string]StreamRate
	queries  map[string]*fedQuery
	// results maps a query ID to its subscriber, a func(stream.Tuple).
	// deliverResult reads it from inside engine emit callbacks, so it
	// must not sit under mu: the federation reads engine loads with mu
	// held (RouteQuery, collectMetrics), and an emit waiting for mu
	// would close the cycle entity.go's lock-order rule describes.
	results sync.Map
	// relayIndex locates any relay (entity or source) by endpoint, for
	// refreshing interests after dynamic tree rewires.
	relayIndex map[simnet.NodeID]*dissemination.Relay
	// monitor is the portal-side failure detector (nil until
	// EnableFailureDetection).
	monitor *coordinator.Detector
	// clock runs every periodic job (clock.go).
	clock clock
	// rebalanceMoves counts queries moved by Rebalance calls.
	rebalanceMoves metrics.Counter
	// adaptEvery and adaptHysteresis are the controller's period and
	// damping: adaptationInterval and adaptationHysteresis, which tests
	// shorten and vary.
	adaptEvery      time.Duration
	adaptHysteresis float64
	// refreshEvery is the interest refresh period: interestRefresh,
	// which tests shorten.
	refreshEvery time.Duration
	// adaptMoves counts queries moved by adaptation rounds; the migration
	// counters and history ring back sspd_migrations_total and the
	// /cluster migration table.
	adaptMoves    metrics.Counter
	migCommits    metrics.Counter
	migRollbacks  metrics.Counter
	migStateBytes metrics.Counter
	migReplayed   metrics.Counter
	migLog        history[MigrationRecord]
	// captureMu lets one state capture at a time hold a query's migrating
	// flag: a migration's handoff or a checkpoint. A migration that meets
	// a checkpoint in flight waits for it rather than failing with
	// "already migrating".
	captureMu sync.Mutex
	// controlGiveUps counts control-plane deliveries abandoned after
	// exhausting their retries (each one is also reported to the failure
	// detector when monitoring is enabled).
	controlGiveUps metrics.Counter
	// registry is the federation's metric registry; the portal scrapes
	// it at GET /metrics. Derived gauges (PR_k, PR_max, edge cut) are
	// computed by a collector at scrape time, never on the hot path.
	registry *metrics.Registry
	// cluster is the registry serving sspd_cluster_* and the
	// cluster-wide plane families at GET /cluster/metrics once the stats
	// plane is enabled (ClusterRegistry hides it until then).
	cluster *metrics.Registry
	// tracer is the per-tuple trace sampler (nil until EnableTracing).
	tracer *trace.Tracer
	// logger is the structured event sink (never nil); its journal
	// backs GET /events.
	logger *obslog.Logger
	// stats is the cluster stats plane (nil until EnableStatsPlane).
	stats *statsPlane
	// lat is the stats plane's latency attribution part — an atomic
	// pointer so the tracer's completion hook (tuple path) never takes
	// f.mu. Nil until EnableStatsPlane.
	lat atomic.Pointer[latencyPlane]
	// am is the Adaptation Module plane (nil unless EnableTupleRouting):
	// it routes trace-measured per-candidate delays back into the
	// entities' downstream choosers.
	am *amPlane
	// amReorders counts operator reorders applied by adaptOrdering
	// sweeps across the federation (sspd_am_reorders_total).
	amReorders metrics.Counter
	// ckpt is the durable-checkpoint plane (nil until
	// EnableCheckpoints).
	ckpt *ckptPlane
	// prof is the continuous profiling recorder (nil until
	// EnableProfiling).
	prof *profile.Recorder
	// entityFailErrors counts detector-confirmed expulsions whose
	// FailEntity call itself failed — failures that would otherwise be
	// silently dropped by the async confirm callback.
	entityFailErrors metrics.Counter
	// Recovery counters and history ring back sspd_recoveries_total and
	// the /cluster recovery table.
	recRestored      metrics.Counter
	recStateless     metrics.Counter
	recFailed        metrics.Counter
	recReplayed      metrics.Counter
	recReplayFetched metrics.Counter
	recLog           history[RecoveryRecord]
	started          bool
	closed           bool
}

type sourceNode struct {
	stream string
	pos    simnet.Point
	rate   StreamRate
	relay  *dissemination.Relay
	tree   *dissemination.Tree
	// published counts tuples injected at this source — the measured
	// arrival rate the stats plane differentiates for the query graph.
	published metrics.Counter
}

type entityNode struct {
	id     string
	pos    simnet.Point
	ent    *entity.Entity
	relays map[string]*dissemination.Relay // stream -> relay
	// hb is the entity's heartbeat responder endpoint.
	hb *coordinator.Detector
}

// hbID names an entity's heartbeat endpoint.
func hbID(entityID string) simnet.NodeID {
	return simnet.NodeID(entityID + "/hb")
}

type fedQuery struct {
	spec   engine.QuerySpec
	entity string
	// migrating guards the query against concurrent migration or
	// removal while a live migration is in flight.
	migrating bool
}

// relayID names an entity's per-stream dissemination endpoint.
func relayID(entityID, streamName string) simnet.NodeID {
	return simnet.NodeID(entityID + ":" + streamName)
}

func sourceID(streamName string) simnet.NodeID {
	return simnet.NodeID("src:" + streamName)
}

// New creates an empty federation.
func New(transport simnet.Transport, catalog *stream.Catalog, opts Options) (*Federation, error) {
	if transport == nil || catalog == nil {
		return nil, fmt.Errorf("core: federation needs a transport and a catalog")
	}
	opts = opts.normalized()
	f := &Federation{
		transport:  transport,
		catalog:    catalog,
		opts:       opts,
		sources:    make(map[string]*sourceNode),
		entities:   make(map[string]*entityNode),
		coord:      coordinator.NewTree(coordinatorK),
		ledger:     NewLedger(nil),
		rates:      make(map[string]StreamRate),
		queries:    make(map[string]*fedQuery),
		relayIndex: make(map[simnet.NodeID]*dissemination.Relay),
		registry:   metrics.NewRegistry(),
		cluster:    metrics.NewRegistry(),
		logger:     opts.Logger,

		adaptEvery:      adaptationInterval,
		adaptHysteresis: adaptationHysteresis,
		refreshEvery:    interestRefresh,
	}
	f.clock.stop = make(chan struct{})
	if f.logger == nil {
		f.logger = obslog.NewText(os.Stderr, obslog.LevelWarn, obslog.DefaultJournalCapacity)
	}
	// Structural tree operations the tree decides on its own become
	// journal events; driven operations (join/leave/fail) are journaled
	// at their call sites with richer context.
	f.coord.SetEventSink(func(op string, leader coordinator.MemberID, level int) {
		f.logger.Info("coordinator."+op, string(leader), "coordinator tree "+op, "level", level)
	})
	f.addCollector(f.collectMetrics, false)
	if opts.EnableTupleRouting {
		f.am = newAMPlane(f)
	}
	f.addCollector(f.collectAM, true)
	// A fault-injecting transport exports its injection counters through
	// the federation's registry.
	if fp, ok := transport.(interface {
		SetRegistry(*metrics.Registry)
	}); ok {
		fp.SetRegistry(f.registry)
	}
	return f, nil
}

// relayOptions builds the dissemination options every relay in this
// federation is constructed with: interest registrations ride reliable
// endpoints (acks, bounded retries, exponential backoff), and exhausted
// retries feed the failure detector. Tuple traffic is unaffected.
func (f *Federation) relayOptions() dissemination.RelayOptions {
	return dissemination.RelayOptions{
		Log:      f.logger,
		Reliable: &simnet.ReliableConfig{OnGiveUp: f.controlGiveUp},
	}
}

// Journal returns the bounded event flight recorder backing GET /events.
func (f *Federation) Journal() *obslog.Journal { return f.logger.Journal() }

// controlGiveUp is the reliable layer's give-up callback: a control
// message to `to` exhausted its retries. The endpoint is mapped back to
// its entity and fed to the failure detector as an out-of-band
// suspicion: the detector fast-tracks its own probe of that entity and
// expels it only if the probe also goes unanswered — so a dead entity
// is discovered through control traffic well before the full heartbeat
// deadline, while a healthy one (the reporter may be the partitioned
// side) survives the report.
func (f *Federation) controlGiveUp(to simnet.NodeID, kind string) {
	f.controlGiveUps.Inc()
	id, ok := entityForEndpoint(to)
	if !ok {
		return
	}
	f.mu.Lock()
	mon := f.monitor
	_, present := f.entities[id]
	f.mu.Unlock()
	f.logger.Info("control.giveup", id, "control delivery abandoned after retries",
		"endpoint", to, "kind", kind)
	if mon != nil && present {
		if mon.ReportFailure(hbID(id)) {
			f.logger.Warn("detector.suspect", id, "entity suspected after control give-up",
				"endpoint", to)
		}
	}
}

// entityForEndpoint maps a transport endpoint back to the entity that
// owns it: "<entity>:<stream>" (relay), "<entity>/hb" (heartbeat), and
// "<entity>/p<i>" (processor) all resolve to "<entity>". Source and
// portal endpoints resolve to nothing.
func entityForEndpoint(ep simnet.NodeID) (string, bool) {
	s := string(ep)
	if strings.HasPrefix(s, "src:") || strings.HasPrefix(s, "portal/") {
		return "", false
	}
	if i := strings.IndexAny(s, ":/"); i > 0 {
		return s[:i], true
	}
	return "", false
}

// AddSource registers a stream source before Start. rate is the nominal
// stream rate used for query-graph edge weights.
func (f *Federation) AddSource(streamName string, pos simnet.Point, rate StreamRate) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("core: sources must be added before Start")
	}
	if _, ok := f.catalog.Lookup(streamName); !ok {
		return fmt.Errorf("core: stream %q not in the global schema", streamName)
	}
	if _, dup := f.sources[streamName]; dup {
		return fmt.Errorf("core: source for %q already added", streamName)
	}
	f.sources[streamName] = &sourceNode{stream: streamName, pos: pos, rate: rate}
	f.rates[streamName] = rate
	return nil
}

// AddEntity registers a business entity before Start. factory selects
// its engine (nil = the full asynchronous engine).
func (f *Federation) AddEntity(id string, pos simnet.Point, nProcs int, factory entity.EngineFactory) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("core: entities must be added before Start")
	}
	if _, dup := f.entities[id]; dup {
		return fmt.Errorf("core: entity %q already added", id)
	}
	en, err := f.newEntityNodeLocked(id, pos, nProcs, factory)
	if err != nil {
		return err
	}
	f.entities[id] = en
	f.logger.Info("entity.join", id, "entity added", "procs", nProcs)
	return nil
}

// newEntityNodeLocked builds an entity with its heartbeat responder and
// joins it to the coordinator tree; the caller wires its relays.
func (f *Federation) newEntityNodeLocked(id string, pos simnet.Point, nProcs int,
	factory entity.EngineFactory) (*entityNode, error) {
	if factory == nil {
		var err error
		if factory, err = engineFactoryFor(f.opts.Engine); err != nil {
			return nil, err
		}
	}
	ent, err := entity.New(id, f.transport, f.catalog, nProcs, factory)
	if err != nil {
		return nil, err
	}
	ent.SetResultHandler(f.deliverResult)
	ent.SetLogger(f.logger)
	if f.opts.EnableTupleRouting {
		ent.SetTupleRouting(routingReplicas, routingExplore)
	}
	hb, err := coordinator.NewDetector(f.transport, hbID(id), time.Second, 3, nil)
	if err != nil {
		ent.Close()
		return nil, err
	}
	if _, err := f.coord.Join(coordinator.MemberID(id), pos); err != nil {
		_ = hb.Close()
		ent.Close()
		return nil, err
	}
	return &entityNode{id: id, pos: pos, ent: ent,
		relays: make(map[string]*dissemination.Relay), hb: hb}, nil
}

// Start builds one dissemination tree per source stream over all
// entities and wires each entity's relay to its intra-entity ingest.
func (f *Federation) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("core: already started")
	}
	if len(f.sources) == 0 {
		return fmt.Errorf("core: no sources")
	}
	if len(f.entities) == 0 {
		return fmt.Errorf("core: no entities")
	}
	ids := make([]string, 0, len(f.entities))
	for id := range f.entities {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	streams := make([]string, 0, len(f.sources))
	for s := range f.sources {
		streams = append(streams, s)
	}
	sort.Strings(streams)

	for _, s := range streams {
		src := f.sources[s]
		members := make([]dissemination.Member, 0, len(ids))
		for _, id := range ids {
			members = append(members, dissemination.Member{
				ID:  relayID(id, s),
				Pos: f.entities[id].pos,
			})
		}
		tree, err := dissemination.Build(s, dissemination.Member{ID: sourceID(s), Pos: src.pos},
			members, f.opts.Strategy, f.opts.Fanout)
		if err != nil {
			return err
		}
		schema, _ := f.catalog.Lookup(s)
		srcRelay, err := dissemination.NewRelayWith(tree, sourceID(s), schema, f.transport, nil, f.relayOptions())
		if err != nil {
			return err
		}
		src.relay = srcRelay
		src.tree = tree
		f.relayIndex[sourceID(s)] = srcRelay
		for _, id := range ids {
			en := f.entities[id]
			// Batch delivery: the relay clones locally matched tuples and
			// hands them over in one call per batch.
			opts := f.relayOptions()
			opts.DeliverBatch = en.ent.IngestBatch
			relay, err := dissemination.NewRelayWith(tree, relayID(id, s), schema,
				f.transport, nil, opts)
			if err != nil {
				return err
			}
			en.relays[s] = relay
			f.relayIndex[relayID(id, s)] = relay
		}
	}
	f.started = true
	f.every(f.refreshEvery, f.refreshTick)
	if f.opts.EnableAdaptation {
		f.every(f.adaptEvery, func() { _, _ = f.AdaptOnce() })
	}
	return nil
}

// refreshTick is the soft-state tick: every entity relay re-announces
// its aggregate interest upward, so ancestor filters re-converge after a
// lost registration or a tree repair. The relays are read under f.mu at
// each tick, so an entity that joined since the last one is covered; the
// sends run outside it. A failed registration is counted by its relay,
// and the next tick retries it.
func (f *Federation) refreshTick() {
	f.mu.Lock()
	var relays []*dissemination.Relay
	for _, en := range f.entities {
		for _, r := range en.relays {
			relays = append(relays, r)
		}
	}
	f.mu.Unlock()
	for _, r := range relays {
		_ = r.Refresh()
	}
}

// Publish injects a batch at a stream's source and disseminates it. When
// tracing is enabled, sampled tuples get a span stamped here (the batch
// is copied before mutation so callers keep their tuples untouched).
func (f *Federation) Publish(streamName string, batch stream.Batch) error {
	f.mu.Lock()
	src, ok := f.sources[streamName]
	started := f.started
	tracer := f.tracer
	f.mu.Unlock()
	if !started {
		return fmt.Errorf("core: federation not started")
	}
	if !ok || src.relay == nil {
		return fmt.Errorf("core: no source for %q", streamName)
	}
	src.published.Add(int64(len(batch)))
	if tracer != nil && tracer.SampleEvery() > 0 {
		node := string(sourceID(streamName))
		var out stream.Batch
		for i, t := range batch {
			if id := tracer.Sample(streamName, t.Seq, node); id != 0 {
				if out == nil {
					out = append(stream.Batch(nil), batch...)
				}
				out[i].Span = uint64(id)
			}
		}
		if out != nil {
			batch = out
		}
	}
	if err := src.relay.Publish(batch); err != nil {
		return err
	}
	// The replay ring records what was actually disseminated, so
	// recovery can re-feed the post-checkpoint suffix.
	if p := f.ckptRef(); p != nil {
		p.observePublish(streamName, batch)
	}
	return nil
}

// SubmitQuery allocates a query via the coordinator tree: the query
// enters at its client's origin, descends to the least-loaded entity of
// the closest leaf cluster, and is placed there. onResult may be nil.
// It returns the chosen entity.
//
// onResult is called once per result, which it is lent: the tuple and
// its Values are valid for the call alone, and a callback that keeps one
// keeps Clone() of it (engine.Processor point 6).
//
// The query's interest goes live asynchronously: its registration
// travels up the dissemination tree after SubmitQuery returns, and an
// ancestor that has not heard of it yet filters its tuples away. Call
// Settle before publishing what the query must see.
func (f *Federation) SubmitQuery(spec engine.QuerySpec, origin simnet.Point,
	onResult func(stream.Tuple)) (string, error) {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return "", fmt.Errorf("core: federation not started")
	}
	if _, dup := f.queries[spec.ID]; dup {
		f.mu.Unlock()
		return "", fmt.Errorf("core: query %s already submitted", spec.ID)
	}
	f.mu.Unlock()
	entityID, err := f.route(origin, nil)
	if err != nil {
		return "", err
	}
	if err := f.placeOn(entityID, spec, onResult); err != nil {
		return "", err
	}
	return entityID, nil
}

// SubmitQueryTo places a query on a specific entity (the batch
// allocator's path). Its interest goes live asynchronously, and its
// results are lent to onResult, as with SubmitQuery: Settle before
// publishing, and keep Clone() of a result.
func (f *Federation) SubmitQueryTo(spec engine.QuerySpec, entityID string,
	onResult func(stream.Tuple)) error {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return fmt.Errorf("core: federation not started")
	}
	if _, dup := f.queries[spec.ID]; dup {
		f.mu.Unlock()
		return fmt.Errorf("core: query %s already submitted", spec.ID)
	}
	f.mu.Unlock()
	return f.placeOn(entityID, spec, onResult)
}

// route descends the coordinator tree from pos to the least-loaded
// entity of the closest leaf cluster, by live engine load plus what the
// caller has already promised each entity this round (pending may be
// nil).
func (f *Federation) route(pos simnet.Point, pending map[string]float64) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	member, _, err := f.coord.RouteQuery(pos, func(m coordinator.MemberID) float64 {
		if en, ok := f.entities[string(m)]; ok {
			return en.ent.Load() + pending[string(m)]
		}
		return 0
	})
	return string(member), err
}

// entity looks an entity up by ID.
func (f *Federation) entity(id string) (*entityNode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if en, ok := f.entities[id]; ok {
		return en, nil
	}
	return nil, fmt.Errorf("core: unknown entity %q", id)
}

func (f *Federation) placeOn(entityID string, spec engine.QuerySpec, onResult func(stream.Tuple)) error {
	en, err := f.entity(entityID)
	if err != nil {
		return err
	}
	if err := en.ent.PlaceQuery(spec, f.opts.FragmentsPerQuery); err != nil {
		return err
	}
	f.mu.Lock()
	f.queries[spec.ID] = &fedQuery{spec: spec, entity: entityID}
	if onResult != nil {
		f.results.Store(spec.ID, onResult)
	}
	f.mu.Unlock()
	if err := f.ledger.Start(spec.ID, entityID); err != nil {
		f.logger.Warn("ledger.error", entityID, "ledger start failed",
			"query", spec.ID, "err", err.Error())
	}
	f.routesChanged()
	return f.refreshInterests(entityID, spec.Streams())
}

// RemoveQuery withdraws a query from the federation. The federation's
// books are updated only after the entity-level removal succeeds, so
// the two can never disagree about the query's existence.
func (f *Federation) RemoveQuery(id string) error {
	f.mu.Lock()
	fq, ok := f.queries[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("core: unknown query %s", id)
	}
	if fq.migrating {
		f.mu.Unlock()
		return fmt.Errorf("core: query %s is migrating", id)
	}
	en := f.entities[fq.entity]
	f.mu.Unlock()
	if _, err := en.ent.RemoveQuery(id); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.queries, id)
	f.results.Delete(id)
	f.mu.Unlock()
	if p := f.ckptRef(); p != nil {
		p.forgetQuery(id)
	}
	if err := f.ledger.Stop(id); err != nil {
		f.logger.Warn("ledger.error", fq.entity, "ledger stop failed",
			"query", id, "err", err.Error())
	}
	f.routesChanged()
	return f.refreshInterests(fq.entity, fq.spec.Streams())
}

// refreshInterests pushes an entity's current aggregated interest for
// the given streams into its dissemination relays (which re-register up
// their trees).
func (f *Federation) refreshInterests(entityID string, streams []string) error {
	en, err := f.entity(entityID)
	if err != nil {
		return err
	}
	for _, s := range streams {
		relay := en.relays[s]
		if relay == nil {
			continue
		}
		if err := relay.SetLocalInterest(en.ent.Interest(s)); err != nil {
			return err
		}
	}
	return nil
}

// deliverResult hands a final-fragment run's results to the query's
// subscriber: one lookup per batch, the subscriber's callback per tuple.
func (f *Federation) deliverResult(queryID string, b stream.Batch) {
	if fn, ok := f.results.Load(queryID); ok {
		onResult := fn.(func(stream.Tuple))
		for _, t := range b {
			onResult(t)
		}
	}
}

// Assignment returns the current query→entity allocation as a
// partitioning over the sorted entity list.
func (f *Federation) Assignment() (querygraph.Partitioning, []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := f.entityIDsLocked()
	index := make(map[string]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	p := make(querygraph.Partitioning, len(f.queries))
	for q, fq := range f.queries {
		p[querygraph.VertexID(q)] = index[fq.entity]
	}
	return p, ids
}

func (f *Federation) entityIDsLocked() []string {
	ids := make([]string, 0, len(f.entities))
	for id := range f.entities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Rebalance runs the Hybrid repartitioner over the query graph and
// migrates every query it moves, one handoff per target entity. It
// returns the number of migrations performed and the first error.
func (f *Federation) Rebalance() (int, error) {
	r, err := f.allocate(nil)
	if err != nil {
		return 0, err
	}
	moved, err := f.execute(r.plan)
	if moved > 0 {
		f.rebalanceMoves.Add(int64(moved))
		f.logger.Info("migration.decide", "", "rebalance migrated queries",
			"moves", moved, "edge_cut", fmt.Sprintf("%.1f", r.g.EdgeCut(r.cur)))
	}
	return moved, err
}

// JoinEntity adds an entity to a RUNNING federation (the paper's
// "entities may join at any time"): it joins the coordinator tree and
// every stream's dissemination tree, and becomes eligible for query
// allocation immediately.
func (f *Federation) JoinEntity(id string, pos simnet.Point, nProcs int, factory entity.EngineFactory) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.started {
		return fmt.Errorf("core: federation not started (use AddEntity before Start)")
	}
	if _, dup := f.entities[id]; dup {
		return fmt.Errorf("core: entity %q already present", id)
	}
	en, err := f.newEntityNodeLocked(id, pos, nProcs, factory)
	if err != nil {
		return err
	}
	for _, s := range f.streamNamesLocked() {
		src := f.sources[s]
		rid := relayID(id, s)
		rw, err := src.tree.AddMember(dissemination.Member{ID: rid, Pos: pos}, f.opts.Fanout)
		if err != nil {
			f.detachEntityLocked(en, id)
			return err
		}
		schema, _ := f.catalog.Lookup(s)
		opts := f.relayOptions()
		opts.DeliverBatch = en.ent.IngestBatch
		relay, err := dissemination.NewRelayWith(src.tree, rid, schema, f.transport, nil, opts)
		if err != nil {
			_, _ = src.tree.RemoveMember(rid, f.opts.Fanout)
			f.detachEntityLocked(en, id)
			return err
		}
		en.relays[s] = relay
		f.relayIndex[rid] = relay
		_ = rw // the new member has no interest yet; refresh happens on placement
	}
	f.entities[id] = en
	f.logger.Info("entity.join", id, "entity joined running federation", "procs", nProcs)
	if f.stats != nil {
		f.stats.addNode(id)
	}
	if f.ckpt != nil {
		f.ckpt.addNode(id, en.ent)
	}
	if f.monitor != nil {
		f.monitor.Watch(hbID(id))
	}
	return nil
}

// detachEntityLocked rolls back a partial JoinEntity.
func (f *Federation) detachEntityLocked(en *entityNode, id string) {
	for s, relay := range en.relays {
		_ = relay.Close()
		delete(f.relayIndex, relayID(id, s))
		if src, ok := f.sources[s]; ok {
			_, _ = src.tree.RemoveMember(relayID(id, s), f.opts.Fanout)
		}
	}
	_ = f.coord.Leave(coordinator.MemberID(id))
	if en.hb != nil {
		_ = en.hb.Close()
	}
	en.ent.Close()
}

// LeaveEntity removes an entity from a RUNNING federation: its queries
// migrate (query-level, as always) to surviving entities chosen through
// the coordinator tree, its relays close, and the dissemination trees
// rewire around it. It returns the number of queries migrated.
func (f *Federation) LeaveEntity(id string) (int, error) {
	f.mu.Lock()
	en, ok := f.entities[id]
	if !ok {
		f.mu.Unlock()
		return 0, fmt.Errorf("core: unknown entity %q", id)
	}
	if len(f.entities) < 2 {
		f.mu.Unlock()
		return 0, fmt.Errorf("core: cannot remove the last entity")
	}
	// Queries hosted here, to migrate after the entity leaves the
	// coordinator tree (so routing cannot pick it again).
	var hosted []*fedQuery
	for _, fq := range f.queries {
		if fq.entity == id {
			hosted = append(hosted, fq)
		}
	}
	sort.Slice(hosted, func(i, j int) bool { return hosted[i].spec.ID < hosted[j].spec.ID })
	if err := f.coord.Leave(coordinator.MemberID(id)); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	f.mu.Unlock()
	f.logger.Info("entity.leave", id, "entity leaving", "queries", len(hosted))

	// Each query goes where the coordinator tree routes it from the
	// departing entity's locality — spread by load, as if submitted one
	// after another — and each target receives its share in one handoff.
	groups := make(map[string][]string)
	pending := make(map[string]float64)
	for _, fq := range hosted {
		target, err := f.route(en.pos, pending)
		if err != nil {
			return 0, err
		}
		groups[target] = append(groups[target], fq.spec.ID)
		pending[target] += fq.spec.EstimatedLoad()
	}
	migrated, err := f.execute(groups)
	if err != nil {
		return migrated, err // a query is still here: the entity stays
	}
	return migrated, f.removeEntity(en, f.logger.Info, "departed")
}

// removeEntity takes an entity that no longer hosts anything out of the
// books and out of every dissemination tree, rewires the trees around it
// and stops it. The journal reports each repair through log, about a
// `why` ("departed", "failed") entity.
func (f *Federation) removeEntity(en *entityNode,
	log func(kind, node, msg string, kv ...any), why string) error {
	id := en.id
	f.mu.Lock()
	delete(f.entities, id)
	var refresh []*dissemination.Relay
	for _, s := range f.streamNamesLocked() {
		src := f.sources[s]
		rid := relayID(id, s)
		oldParent := src.tree.Parent(rid)
		rewires, err := src.tree.RemoveMember(rid, f.opts.Fanout)
		if err != nil {
			f.mu.Unlock()
			return err
		}
		log("tree.repair", id, "dissemination tree rewired around "+why+" entity",
			"stream", s, "rewires", len(rewires))
		if relay := en.relays[s]; relay != nil {
			_ = relay.Close()
		}
		delete(f.relayIndex, rid)
		if pr, ok := f.relayIndex[oldParent]; ok {
			pr.DropChild(rid)
			refresh = append(refresh, pr)
		}
		for _, rw := range rewires {
			if child, ok := f.relayIndex[rw.Child]; ok {
				refresh = append(refresh, child)
			}
		}
	}
	stats, monitor := f.stats, f.monitor
	f.mu.Unlock()
	if stats != nil {
		stats.removeNode(id)
	}
	if lat := f.lat.Load(); lat != nil {
		lat.forgetEntity(id)
	}
	if monitor != nil {
		monitor.Unwatch(hbID(id))
	}
	if en.hb != nil {
		_ = en.hb.Close()
	}
	en.ent.Close()
	for _, r := range refresh {
		if err := r.Refresh(); err != nil {
			return err
		}
	}
	return nil
}

// FailEntity expels a crashed entity: unlike LeaveEntity, nothing is
// asked of the entity itself. Its queries are handed to survivors the
// way a migration hands them over (handoff.go), except that their state
// comes from their newest quorum-acked checkpoint and their replay from
// the upstream rings — or, without the checkpoint plane, from nowhere:
// a spec plus the stream is enough to rebuild a query anywhere. It
// returns the number of queries brought back.
func (f *Federation) FailEntity(id string) (int, error) {
	f.mu.Lock()
	en, ok := f.entities[id]
	if !ok {
		f.mu.Unlock()
		return 0, fmt.Errorf("core: unknown entity %q", id)
	}
	if len(f.entities) < 2 {
		f.mu.Unlock()
		return 0, fmt.Errorf("core: cannot expel the last entity")
	}
	_ = f.coord.Fail(coordinator.MemberID(id))
	f.logger.Error("entity.fail", id, "entity expelled as failed")
	// The dead entity's queries leave the books and re-enter them when
	// their handoff commits; their result routes stay up meanwhile.
	var orphans []*handoffItem
	for q, fq := range f.queries {
		if fq.entity == id {
			orphans = append(orphans, &handoffItem{spec: fq.spec, lost: id})
			delete(f.queries, q)
		}
	}
	f.mu.Unlock()
	if err := f.removeEntity(en, f.logger.Warn, "failed"); err != nil {
		return 0, err
	}

	start := time.Now()
	f.logger.Info("recovery.start", id, "crash recovery starting", "queries", len(orphans))
	if p := f.ckptRef(); p != nil {
		p.killReplica(id)
		ids := make([]string, len(orphans))
		for i, it := range orphans {
			ids[i] = it.spec.ID
		}
		recs := p.fetchRecords(ids, recoveryFetchTimeout)
		for _, it := range orphans {
			if rec, has := recs[it.spec.ID]; has {
				it.record = &rec
			}
		}
	}
	// Route every orphan from the dead entity's locality, then hand each
	// target its group: one interest refresh, one settle and one ring read
	// per stream however many queries it takes in.
	groups := make(map[string][]*handoffItem)
	var firstErr error
	for _, it := range orphans {
		_ = f.ledger.Stop(it.spec.ID) // the dead entity's accrual ends
		target, err := f.route(en.pos, nil)
		if err != nil {
			f.recordHandoff("", it, 0, "route: "+err.Error())
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		groups[target] = append(groups[target], it)
	}
	recovered := 0
	for _, target := range slices.Sorted(maps.Keys(groups)) {
		n, err := f.handoff(target, groups[target])
		recovered += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.logger.Info("recovery.done", id, "crash recovery finished",
		"queries", len(orphans), "recovered", recovered,
		"elapsed_ms", fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/1000))
	return recovered, firstErr
}

// EnableFailureDetection starts portal-side heartbeat monitoring of
// every current entity: an entity that misses `threshold` intervals is
// expelled via FailEntity. An entity that joins later is watched from
// its JoinEntity on. It is safe to call once, after Start.
func (f *Federation) EnableFailureDetection(interval time.Duration, threshold int) error {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return fmt.Errorf("core: federation not started")
	}
	if f.monitor != nil {
		f.mu.Unlock()
		return fmt.Errorf("core: failure detection already enabled")
	}
	f.mu.Unlock()
	mon, err := coordinator.NewDetector(f.transport, "portal/hb", interval, threshold,
		func(peer simnet.NodeID) {
			id := strings.TrimSuffix(string(peer), "/hb")
			f.logger.Warn("detector.confirm", id, "failure confirmed, expelling entity")
			go f.expelConfirmed(id)
		})
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.monitor = mon
	for id := range f.entities {
		mon.Watch(hbID(id))
	}
	f.mu.Unlock()
	mon.Start()
	return nil
}

// adaptOrdering runs the Adaptation Module sweep on every entity's
// engines (where supported), returning the number of queries whose
// operator plan actually changed — the federation-wide form of Section
// 4.2's runtime re-ordering, run first in every AdaptOnce round. Every
// engine kind reports applied reorders (not requests), so the sum is
// comparable across mixed engines.
func (f *Federation) adaptOrdering() int {
	f.mu.Lock()
	entities := make([]*entityNode, 0, len(f.entities))
	for _, en := range f.entities {
		entities = append(entities, en)
	}
	f.mu.Unlock()
	n := 0
	for _, en := range entities {
		k := en.ent.AdaptOrdering()
		if k > 0 {
			f.logger.Info("am.reorder", en.id, "operator plans re-ordered", "applied", k)
		}
		n += k
	}
	f.amReorders.Add(int64(n))
	return n
}

// ReorganizeTrees incrementally reorganizes every dissemination tree
// toward shorter edges under the fanout bound. Each rewire is
// make-before-break: the child's interest is pre-registered along the
// new path and the registrations are allowed to settle BEFORE the tree
// edge flips, so no in-flight tuple is filtered away by an ancestor that
// does not yet know about the moved subtree. It returns the total number
// of parent switches.
func (f *Federation) ReorganizeTrees() (int, error) {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return 0, fmt.Errorf("core: federation not started")
	}
	streams := f.streamNamesLocked()
	f.mu.Unlock()

	total := 0
	for _, s := range streams {
		f.mu.Lock()
		src := f.sources[s]
		f.mu.Unlock()
		if src == nil || src.tree == nil {
			continue
		}
		for moves := 0; moves < 4*len(src.tree.Members()); moves++ {
			rw, ok := src.tree.ReorganizeStep(f.opts.Fanout)
			if !ok {
				break
			}
			f.mu.Lock()
			child := f.relayIndex[rw.Child]
			oldParent := f.relayIndex[rw.OldParent]
			f.mu.Unlock()
			// Phase A: the future parent (and transitively the new
			// path's ancestors) learn the subtree's interest first.
			if child != nil {
				if err := child.PreRegister(rw.NewParent); err != nil {
					return total, err
				}
				f.Settle(2 * time.Second)
			}
			// Phase B: flip the edge; the new path already forwards
			// for this subtree, the old path drains naturally.
			if err := src.tree.ApplyRewire(rw, f.opts.Fanout); err != nil {
				return total, err
			}
			total++
			if child != nil {
				if err := child.Refresh(); err != nil {
					return total, err
				}
			}
			if oldParent != nil {
				oldParent.DropChild(rw.Child)
				if err := oldParent.Refresh(); err != nil {
					return total, err
				}
			}
			f.Settle(2 * time.Second)
		}
	}
	return total, nil
}

// Settle waits for in-flight control traffic (interest registrations) to
// drain: on transports that support quiescence detection (SimNet) it
// waits exactly as long as needed; on others (TCP) it sleeps briefly.
// Call it after churn operations before relying on exact filtering.
func (f *Federation) Settle(timeout time.Duration) {
	simnet.Settle(f.transport, timeout)
}

func (f *Federation) streamNamesLocked() []string {
	out := make([]string, 0, len(f.sources))
	for s := range f.sources {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// EntityIDs returns the sorted entity IDs.
func (f *Federation) EntityIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.entityIDsLocked()
}

// EntityLoad returns an entity's current engine load.
func (f *Federation) EntityLoad(id string) float64 {
	en, err := f.entity(id)
	if err != nil {
		return 0
	}
	return en.ent.Load()
}

// QueryEntity reports which entity hosts a query.
func (f *Federation) QueryEntity(id string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fq, ok := f.queries[id]
	if !ok {
		return "", false
	}
	return fq.entity, true
}

// NumQueries returns the number of active queries.
func (f *Federation) NumQueries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queries)
}

// Ledger exposes the accounting ledger.
func (f *Federation) Ledger() *Ledger { return f.ledger }

// Coordinator exposes the coordinator tree (read-only use).
func (f *Federation) Coordinator() *coordinator.Tree { return f.coord }

// DisseminationTree returns the tree for a stream (nil before Start).
func (f *Federation) DisseminationTree(streamName string) *dissemination.Tree {
	f.mu.Lock()
	defer f.mu.Unlock()
	if src, ok := f.sources[streamName]; ok {
		return src.tree
	}
	return nil
}

// Close shuts everything down. The clock stops first — one call ends
// every periodic job and waits for the ones in flight — so no plane is
// torn down under its own tick.
func (f *Federation) Close() {
	f.clock.halt()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	entities := f.entities
	sources := f.sources
	tracer := f.tracer
	f.tracer = nil
	stats := f.stats
	f.stats = nil
	ckpt := f.ckpt
	f.ckpt = nil
	prof := f.prof
	f.prof = nil
	f.mu.Unlock()
	if prof != nil {
		prof.Close()
	}
	if ckpt != nil {
		ckpt.close()
	}
	f.lat.Store(nil) // detach the latency plane from the span dispatcher
	if stats != nil {
		stats.close()
	}
	if tracer != nil && trace.Active() == tracer {
		trace.SetActive(nil)
	}
	for _, src := range sources {
		if src.relay != nil {
			_ = src.relay.Close()
		}
	}
	for _, en := range entities {
		for _, relay := range en.relays {
			_ = relay.Close()
		}
		if en.hb != nil {
			_ = en.hb.Close()
		}
		en.ent.Close()
	}
	if f.monitor != nil {
		_ = f.monitor.Close()
	}
}
