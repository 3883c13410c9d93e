package core

import (
	"fmt"
	"sort"

	"sspd/internal/dissemination"
	"sspd/internal/metrics"
	"sspd/internal/trace"
)

// This file wires the federation into the observability layer: a metric
// registry whose collector derives every system-level signal (per-query
// PR_k, federation PR_max, coordinator-tree events, relay traffic, edge
// cut) from live state at scrape time, and the per-tuple tracer that
// Publish stamps spans from.

// MetricsRegistry returns the federation's metric registry; the portal
// serves it at GET /metrics.
func (f *Federation) MetricsRegistry() *metrics.Registry { return f.registry }

// addCollector registers a plane's collector — once — on the federation
// registry and, when its families are cluster-wide, on the cluster
// registry too, so GET /metrics and GET /cluster/metrics serve the same
// series from the same code.
func (f *Federation) addCollector(c metrics.Collector, clusterWide bool) {
	f.registry.RegisterCollector(c)
	if clusterWide {
		f.cluster.RegisterCollector(c)
	}
}

// EnableTracing installs a per-tuple tracer sampling one in `every`
// published tuples (every <= 0 disables; 1 traces everything), keeping
// the most recent traceCapacity spans. The tracer is installed
// process-wide so relays and entity processors can record hops without
// plumbing; Close uninstalls it. With the stats plane on too, in either
// order, sampled spans are attributed to latency stages.
func (f *Federation) EnableTracing(every int) (*trace.Tracer, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tracer != nil {
		return nil, fmt.Errorf("core: tracing already enabled")
	}
	t := trace.New(every, traceCapacity)
	f.tracer = t
	trace.SetActive(t)
	// The tracer has ONE completion hook; the federation dispatcher fans
	// completions out to whichever planes are live (latency attribution,
	// the AM routing plane) through copy-on-write pointers, so the hook
	// itself never takes f.mu.
	t.SetOnComplete(f.dispatchSpanComplete)
	return t, nil
}

// Tracer returns the installed tracer, or nil when tracing is disabled.
func (f *Federation) Tracer() *trace.Tracer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tracer
}

// QueryPR reports one query's Performance Ratio PR_k = d_k / p_k as
// measured by its hosting entity's engines. ok is false when the query
// is unknown or its engines expose no metrics (e.g. MiniEngine).
func (f *Federation) QueryPR(id string) (pr float64, ok bool) {
	f.mu.Lock()
	fq, found := f.queries[id]
	var en *entityNode
	if found {
		en = f.entities[fq.entity]
	}
	f.mu.Unlock()
	if en == nil {
		return 0, false
	}
	d, p, has := en.ent.QueryPerf(id)
	if !has || p <= 0 {
		return 0, false
	}
	return d / p, true
}

// collectMetrics is the registry collector: it derives every
// federation-level metric from live state at scrape time.
func (f *Federation) collectMetrics(emit func(metrics.Sample)) {
	f.mu.Lock()
	entityIDs := f.entityIDsLocked()
	queryIDs := make([]string, 0, len(f.queries))
	for id := range f.queries {
		queryIDs = append(queryIDs, id)
	}
	queryEntity := make(map[string]*entityNode, len(queryIDs))
	for _, id := range queryIDs {
		queryEntity[id] = f.entities[f.queries[id].entity]
	}
	entities := make([]*entityNode, 0, len(entityIDs))
	for _, id := range entityIDs {
		entities = append(entities, f.entities[id])
	}
	streams := f.streamNamesLocked()
	type relayStats struct {
		delivered, relayed, suppressed int64
		bytes, messages                int64
	}
	perStream := make(map[string]*relayStats, len(streams))
	for _, s := range streams {
		st := &relayStats{}
		if src := f.sources[s]; src != nil && src.relay != nil {
			st.relayed += src.relay.Relayed.Value()
			st.suppressed += src.relay.Suppressed.Value()
			st.bytes += src.relay.LinkBytes.Bytes()
			st.messages += src.relay.LinkBytes.Messages()
		}
		for _, en := range entities {
			if relay := en.relays[s]; relay != nil {
				st.delivered += relay.Delivered.Value()
				st.relayed += relay.Relayed.Value()
				st.suppressed += relay.Suppressed.Value()
				st.bytes += relay.LinkBytes.Bytes()
				st.messages += relay.LinkBytes.Messages()
			}
		}
		perStream[s] = st
	}
	coordEvents := f.coord.Events()
	tracer := f.tracer
	started := f.started
	relays := make([]*dissemination.Relay, 0, len(f.relayIndex))
	for _, r := range f.relayIndex {
		relays = append(relays, r)
	}
	f.mu.Unlock()

	// Robustness signals: per-link send failures, per-kind decode
	// failures, and the reliable control plane's retry/suppression/
	// give-up totals.
	sendErrs := make(map[string]int64)
	decodeErrs := make(map[string]int64)
	var relRetries, relSuppressed int64
	for _, r := range relays {
		for link, n := range r.SendErrorsByLink() {
			sendErrs[string(link)] += n
		}
		for kind, n := range r.DecodeErrorsByKind() {
			decodeErrs[kind] += n
		}
		if rel := r.Reliable(); rel != nil {
			relRetries += rel.Retries.Value()
			relSuppressed += rel.Suppressed.Value()
		}
	}

	metrics.EmitGauge(emit, "sspd_entities", "Number of entities in the federation.", float64(len(entityIDs)))
	metrics.EmitGauge(emit, "sspd_queries", "Number of active queries.", float64(len(queryIDs)))

	// Per-query d_k, p_k, PR_k and the federation PR_max. Every active
	// query gets a PR series (0 until its engines have measured), so
	// dashboards see the full query population immediately.
	prMax := 0.0
	sort.Strings(queryIDs)
	for _, id := range queryIDs {
		var d, p float64
		if en := queryEntity[id]; en != nil {
			d, p, _ = en.ent.QueryPerf(id)
		}
		pr := 0.0
		if p > 0 {
			pr = d / p
		}
		if pr > prMax {
			prMax = pr
		}
		lq := metrics.L("query", id)
		metrics.EmitGauge(emit, "sspd_query_delay_seconds", "Mean result delay d_k per query.", d, lq)
		metrics.EmitGauge(emit, "sspd_query_processing_seconds", "Mean processing time p_k per query.", p, lq)
		metrics.EmitGauge(emit, "sspd_pr_ratio", "Performance Ratio PR_k = d_k / p_k per query.", pr, lq)
	}
	metrics.EmitGauge(emit, "sspd_pr_max", "Federation-wide maximum Performance Ratio max_k(d_k/p_k).", prMax)

	for i, id := range entityIDs {
		metrics.EmitGauge(emit, "sspd_entity_load", "Entity engine load (query-graph vertex weight).",
			entities[i].ent.Load(), metrics.L("entity", id))
	}

	metrics.EmitCounter(emit, "sspd_coordinator_events_total", "Coordinator-tree maintenance operations by type.",
		float64(coordEvents.Joins), metrics.L("event", "join"))
	metrics.EmitCounter(emit, "sspd_coordinator_events_total", "Coordinator-tree maintenance operations by type.",
		float64(coordEvents.Leaves), metrics.L("event", "leave"))
	metrics.EmitCounter(emit, "sspd_coordinator_events_total", "Coordinator-tree maintenance operations by type.",
		float64(coordEvents.Fails), metrics.L("event", "fail"))
	metrics.EmitCounter(emit, "sspd_coordinator_events_total", "Coordinator-tree maintenance operations by type.",
		float64(coordEvents.Splits), metrics.L("event", "split"))
	metrics.EmitCounter(emit, "sspd_coordinator_events_total", "Coordinator-tree maintenance operations by type.",
		float64(coordEvents.Merges), metrics.L("event", "merge"))
	metrics.EmitCounter(emit, "sspd_coordinator_events_total", "Coordinator-tree maintenance operations by type.",
		float64(coordEvents.Recenters), metrics.L("event", "recenter"))

	for _, s := range streams {
		st := perStream[s]
		ls := metrics.L("stream", s)
		metrics.EmitCounter(emit, "sspd_relay_delivered_total", "Tuples delivered to local entities per stream.",
			float64(st.delivered), ls)
		metrics.EmitCounter(emit, "sspd_relay_relayed_total", "Tuples forwarded on downstream links per stream.",
			float64(st.relayed), ls)
		metrics.EmitCounter(emit, "sspd_relay_suppressed_total", "Tuples early filtering kept off downstream links per stream.",
			float64(st.suppressed), ls)
		metrics.EmitCounter(emit, "sspd_relay_link_bytes_total", "Encoded bytes sent on dissemination links per stream.",
			float64(st.bytes), ls)
		metrics.EmitCounter(emit, "sspd_relay_link_messages_total", "Messages sent on dissemination links per stream.",
			float64(st.messages), ls)
	}
	for i, id := range entityIDs {
		metrics.EmitCounter(emit, "sspd_entity_suppressed_total", "Tuples the delegation fan-out kept off remote processors per entity.",
			float64(entities[i].ent.Suppressed.Value()), metrics.L("entity", id))
	}

	metrics.EmitCounter(emit, "sspd_rebalance_moves_total", "Queries migrated by Rebalance calls.",
		float64(f.rebalanceMoves.Value()))

	metrics.EmitCounter(emit, "sspd_migrations_total", "Live migrations by outcome.",
		float64(f.migCommits.Value()), metrics.L("outcome", "commit"))
	metrics.EmitCounter(emit, "sspd_migrations_total", "Live migrations by outcome.",
		float64(f.migRollbacks.Value()), metrics.L("outcome", "rollback"))
	metrics.EmitCounter(emit, "sspd_migration_state_bytes_total", "Serialized operator-state bytes transferred by live migrations.",
		float64(f.migStateBytes.Value()))
	metrics.EmitCounter(emit, "sspd_migration_replayed_total", "Buffered tuples replayed at migration destinations.",
		float64(f.migReplayed.Value()))
	metrics.EmitCounter(emit, "sspd_adaptation_moves_total", "Queries migrated by the adaptation controller.",
		float64(f.adaptMoves.Value()))

	// Durability and crash-recovery signals (checkpoint plane; the
	// write/byte counters stay zero until EnableCheckpoints).
	ck := f.Checkpoints()
	metrics.EmitCounter(emit, "sspd_checkpoints_total", "Checkpoint records written and replicated.",
		float64(ck.Writes))
	metrics.EmitCounter(emit, "sspd_checkpoint_bytes_total", "Encoded checkpoint bytes shipped to replicas.",
		float64(ck.WireBytes))
	metrics.EmitCounter(emit, "sspd_checkpoint_quorum_total", "Checkpoints acknowledged by a replica quorum.",
		float64(ck.QuorumAcked))
	metrics.EmitCounter(emit, "sspd_checkpoint_errors_total", "Checkpoint attempts that failed before replication.",
		float64(ck.Errors))
	metrics.EmitCounter(emit, "sspd_checkpoint_corrupt_total", "Checkpoint records rejected as corrupt (CRC or torn chunks).",
		float64(ck.Corrupt))
	metrics.EmitCounter(emit, "sspd_checkpoint_stale_total", "Checkpoint records rejected as stale (older sequence).",
		float64(ck.StaleDrops))
	metrics.EmitCounter(emit, "sspd_recoveries_total", "Crash-recovered queries by outcome.",
		float64(f.recRestored.Value()), metrics.L("outcome", "restored"))
	metrics.EmitCounter(emit, "sspd_recoveries_total", "Crash-recovered queries by outcome.",
		float64(f.recStateless.Value()), metrics.L("outcome", "stateless"))
	metrics.EmitCounter(emit, "sspd_recoveries_total", "Crash-recovered queries by outcome.",
		float64(f.recFailed.Value()), metrics.L("outcome", "failed"))
	metrics.EmitCounter(emit, "sspd_recovery_replayed_total", "Tuples replayed through recovered queries' gates.",
		float64(f.recReplayed.Value()))
	metrics.EmitCounter(emit, "sspd_recovery_replay_fetched_total", "Tuples fetched from the upstream replay rings during recoveries.",
		float64(f.recReplayFetched.Value()))
	metrics.EmitCounter(emit, "sspd_entity_fail_errors_total", "Detector-confirmed expulsions whose FailEntity call failed.",
		float64(f.entityFailErrors.Value()))

	for l, n := range sendErrs {
		metrics.EmitCounter(emit, "sspd_relay_send_errors_total", "Transport sends a relay could not complete, by destination link.",
			float64(n), metrics.L("link", l))
	}
	for k, n := range decodeErrs {
		metrics.EmitCounter(emit, "sspd_relay_decode_errors_total", "Payloads relays dropped as undecodable, by message kind.",
			float64(n), metrics.L("kind", k))
	}
	frameErrs := make(map[string]int64)
	for _, en := range entities {
		for kind, n := range en.ent.FrameDecodeErrors() {
			frameErrs[kind] += n
		}
	}
	for k, n := range frameErrs {
		metrics.EmitCounter(emit, "sspd_entity_frame_decode_errors_total", "Intra-entity frames processors dropped as undecodable, by frame kind.",
			float64(n), metrics.L("kind", k))
	}
	metrics.EmitCounter(emit, "sspd_control_giveups_total", "Control-plane deliveries abandoned after exhausting retries.",
		float64(f.controlGiveUps.Value()))
	metrics.EmitCounter(emit, "sspd_control_retries_total", "Control-plane delivery retries by the reliable endpoints.",
		float64(relRetries))
	metrics.EmitCounter(emit, "sspd_control_suppressed_total", "Stale or duplicate control messages suppressed by receivers.",
		float64(relSuppressed))

	// Edge cut of the live allocation: query-graph edge weight crossing
	// entity boundaries (QueryGraph locks internally; must be outside
	// f.mu).
	if started && len(queryIDs) > 0 {
		g := f.QueryGraph()
		p, _ := f.Assignment()
		metrics.EmitGauge(emit, "sspd_edge_cut", "Query-graph edge weight (bytes/sec) crossing entity boundaries.",
			g.EdgeCut(p))
	}

	if tracer != nil {
		metrics.EmitGauge(emit, "sspd_trace_sample_every", "Trace sampling divisor (0 = disabled).",
			float64(tracer.SampleEvery()))
		metrics.EmitGauge(emit, "sspd_trace_spans", "Trace spans currently buffered.", float64(tracer.Len()))
		metrics.EmitCounter(emit, "sspd_trace_sampled_total", "Tuples sampled into trace spans.",
			float64(tracer.Sampled.Value()))
		metrics.EmitCounter(emit, "sspd_trace_hops_total", "Hops recorded across all spans.",
			float64(tracer.Hops.Value()))
		metrics.EmitCounter(emit, "sspd_trace_evicted_total", "Spans evicted by ring wraparound.",
			float64(tracer.Evicted.Value()))
		metrics.EmitCounter(emit, "sspd_trace_dropped_hops_total", "Hops dropped (span evicted or hop cap hit).",
			float64(tracer.DroppedHops.Value()))
	}
}
