package sspd

import (
	"time"

	"sspd/internal/coordinator"
	"sspd/internal/core"
	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/latency"
	"sspd/internal/obslog"
	"sspd/internal/operator"
	"sspd/internal/profile"
	"sspd/internal/querygraph"
	"sspd/internal/simnet"
	"sspd/internal/sspdql"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// Data-model surface.
type (
	// Tuple is one data item on a stream. A query result is lent to its
	// callback: keep Clone() of it, not the tuple (see the package doc).
	Tuple = stream.Tuple
	// Batch is a slice of tuples shipped together.
	Batch = stream.Batch
	// Value is a dynamically typed attribute value.
	Value = stream.Value
	// Schema is a stream's typed layout.
	Schema = stream.Schema
	// Field describes one schema attribute.
	Field = stream.Field
	// Catalog is the global schema registry all entities share.
	Catalog = stream.Catalog
	// Interest is a data-interest predicate over one stream.
	Interest = stream.Interest
	// WindowSpec describes a sliding window.
	WindowSpec = stream.WindowSpec
)

// Value constructors and schema helpers re-exported from the data model.
var (
	Int       = stream.Int
	Float     = stream.Float
	String    = stream.String
	NewTuple  = stream.NewTuple
	NewSchema = stream.NewSchema
)

// Window constructors.
var (
	CountWindow = stream.CountWindow
	TimeWindow  = stream.TimeWindow
)

// Query surface: the declarative specs entities exchange.
type (
	// QuerySpec declares one continuous query.
	QuerySpec = engine.QuerySpec
	// FilterSpec is one commutable predicate step.
	FilterSpec = engine.FilterSpec
	// AggSpec is an optional terminal windowed aggregate.
	AggSpec = engine.AggSpec
	// JoinSpec is an optional head window join.
	JoinSpec = engine.JoinSpec
	// AggFunc selects the aggregate function.
	AggFunc = operator.AggFunc
	// EngineFactory builds a processing engine for one processor.
	EngineFactory = entity.EngineFactory
	// Processor is the engine interface every entity implements.
	Processor = engine.Processor
)

// Aggregate functions.
const (
	AggCount = operator.AggCount
	AggSum   = operator.AggSum
	AggAvg   = operator.AggAvg
	AggMin   = operator.AggMin
	AggMax   = operator.AggMax
)

// Network surface.
type (
	// Point is a location in the synthetic coordinate space.
	Point = simnet.Point
	// NodeID names a transport endpoint.
	NodeID = simnet.NodeID
	// Transport moves messages between nodes and meters bytes.
	Transport = simnet.Transport
	// SimNet is the in-process simulated network.
	SimNet = simnet.SimNet
	// TCPNet is the real-socket transport.
	TCPNet = simnet.TCPNet
)

// Transport constructors.
var (
	NewSimNet = simnet.NewSim
	NewTCPNet = simnet.NewTCP
)

// Federation surface (the inter-entity layer).
type (
	// Federation is the running two-layer system.
	Federation = core.Federation
	// Options configures a federation.
	Options = core.Options
	// StreamRate is a stream's nominal byte rate.
	StreamRate = core.StreamRate
	// Ledger accounts entity execution time.
	Ledger = core.Ledger
	// MigrationRecord is one committed or rolled-back live migration.
	MigrationRecord = core.MigrationRecord
	// RecoveryRecord is one query's crash-recovery outcome.
	RecoveryRecord = core.RecoveryRecord
	// CheckpointInfo is the durable-checkpoint plane's status summary.
	CheckpointInfo = core.CheckpointInfo
	// Strategy selects the dissemination-tree shape.
	Strategy = dissemination.Strategy
)

// Dissemination strategies.
const (
	SourceDirect = dissemination.SourceDirect
	Balanced     = dissemination.Balanced
	Locality     = dissemination.Locality
)

// NewFederation creates an empty federation on the given transport.
func NewFederation(t Transport, c *Catalog, o Options) (*Federation, error) {
	return core.New(t, c, o)
}

// Engine constructors: the two bundled engine implementations.
var (
	// NewEngine builds the production engine: the shard-per-core
	// vectorized engine with one shard per CPU.
	NewEngine = engine.New
	// NewShardEngine is NewEngine with an explicit shard count
	// (nShards 0 picks GOMAXPROCS).
	NewShardEngine = engine.NewShard
	// NewMiniEngine builds the synchronous reference engine, the oracle
	// the production engine is tested against.
	NewMiniEngine = engine.NewMini
)

// Engine surface: the production engine and the optional measurement
// capability an instrumented engine implements.
type (
	// ShardEngine is the shard-per-core vectorized engine.
	ShardEngine = engine.ShardEngine
	// EngineReporter exposes per-query performance, drop counts and the
	// per-shard telemetry snapshot.
	EngineReporter = engine.Reporter
)

// Workload generators.
type (
	// Ticker generates the stock-quote stream.
	Ticker = workload.Ticker
	// FlowGen generates the network-monitoring stream.
	FlowGen = workload.FlowGen
	// QueryGen generates query streams with controllable overlap.
	QueryGen = workload.QueryGen
)

// Generator constructors.
var (
	NewTicker   = workload.NewTicker
	NewFlowGen  = workload.NewFlowGen
	NewQueryGen = workload.NewQueryGen
)

// NewCatalog returns the global schema catalog of the bundled workloads
// (quotes, trades, flows) with the given symbol and host cardinalities.
func NewCatalog(symbols, hosts int) *Catalog {
	return workload.Catalog(symbols, hosts)
}

// NewLedger returns a standalone accounting ledger; clock may be nil.
func NewLedger(clock func() time.Time) *Ledger { return core.NewLedger(clock) }

// ParseQuery compiles sspdql query text ("FROM quotes WHERE price
// BETWEEN 10 AND 20 AGGREGATE avg(price) BY symbol WINDOW 60s") into a
// QuerySpec with the given ID.
func ParseQuery(id, src string) (QuerySpec, error) { return sspdql.Parse(id, src) }

// FormatQuery renders a spec back to sspdql text.
func FormatQuery(spec QuerySpec) string { return sspdql.Format(spec) }

// Query-graph partitioners, exposed for standalone optimization studies.
var (
	// PartitionQueries is the flat balanced k-way partitioner.
	PartitionQueries = querygraph.Partition
	// PartitionQueriesMultilevel is the METIS-style multilevel variant.
	PartitionQueriesMultilevel = querygraph.PartitionMultilevel
)

// Observability surface: the structured event journal and the cluster
// stats federation behind \cluster and GET /cluster/* (DESIGN.md §9).
type (
	// ObsEvent is one structured journal event.
	ObsEvent = obslog.Event
	// ObsJournal is the bounded flight recorder served at GET /events.
	ObsJournal = obslog.Journal
	// ObsLogger is the leveled structured logger that feeds the journal.
	ObsLogger = obslog.Logger
	// EntityHealth is one row of the cluster health view.
	EntityHealth = core.EntityHealth
	// ClusterEntityStats is one entity's row in the federated digest.
	ClusterEntityStats = coordinator.EntityStats
)

// EventKindMatches reports whether an event kind matches a filter:
// empty matches everything, otherwise exact or dot-boundary prefix
// ("detector" matches "detector.suspect" but not "detectors.x").
var EventKindMatches = obslog.KindMatches

// NewObsLogger builds a logger that journals every event and prints
// those at or above min as slog text lines to w. Pass it via
// Options.Logger to control a federation's event output.
var NewObsLogger = obslog.NewText

// Latency-attribution surface (DESIGN.md §11): span-derived stage
// histograms, the measured performance ratio, and the SLO watchdog. They
// are part of the stats plane (Federation.EnableStatsPlane) and attribute
// sampled spans once Federation.EnableTracing is on too; query them via
// Federation.ClusterLatency, Federation.SLOStatus, and GET
// /cluster/latency.
type (
	// LatencyAttribution is a mergeable attribution snapshot: the
	// end-to-end delay distribution, per-stage histograms, and
	// per-query measured-PR rows.
	LatencyAttribution = latency.Attribution
	// LatencyBreakdown is one completed span decomposed into per-stage
	// wall-clock deltas that telescope to the end-to-end delay.
	LatencyBreakdown = latency.Breakdown
	// LatencyHistSnapshot is a fixed-boundary log-bucket histogram
	// snapshot (exact bucket-wise merging, quantiles within one bucket).
	LatencyHistSnapshot = latency.HistSnapshot
	// QueryLatency is one query's measured latency summary, including
	// its stage waterfall and measured performance ratio.
	QueryLatency = latency.QueryLatency
	// SLOVerdict is one rule's state after a watchdog evaluation.
	SLOVerdict = latency.Verdict
)

// LatencyStages names the pipeline segments spans decompose into.
var LatencyStages = latency.Stages

// Engine-introspection surface (DESIGN.md §14): per-shard telemetry and
// the backpressure watchdog, part of the stats plane
// (Federation.EnableStatsPlane), and continuous profiling
// (Federation.EnableProfiling); query them via Federation.ClusterEngine,
// GET /cluster/engine, and GET /profiles.
type (
	// EngineStats is one engine's (or, merged, one entity's or the
	// cluster's) shard telemetry snapshot.
	EngineStats = engine.EngineStats
	// EngineShardStat is one shard's telemetry row: ring occupancy and
	// high-water, drops, kernel-vs-interpreted split, control latency.
	EngineShardStat = engine.ShardStat
	// ClusterEngineView is the cluster engine view: every entity's shard
	// telemetry plus the backpressure watchdog's windowed readings.
	ClusterEngineView = core.ClusterEngineView
	// EntityEngine is one entity's row in the cluster engine view.
	EntityEngine = core.EntityEngine
	// ProfileCapture describes one stored pprof capture.
	ProfileCapture = profile.Capture
	// ProfileOptions configures a profile recorder.
	ProfileOptions = profile.Options
	// ProfileRecorder is the bounded on-disk pprof capture ring.
	ProfileRecorder = profile.Recorder
)
