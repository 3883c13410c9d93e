package core

// The cluster stats plane (DESIGN.md §9): every entity has a
// coordinator.StatsNode that once per digest period folds its local
// registry — measured query loads, per-stream link byte rates, PR_max
// with a short history, send/decode error counters — into an
// EntityStats row and pushes it up the coordinator tree. Interior nodes merge child digests,
// so the tree's root holds the cluster view that backs GET
// /cluster/metrics, GET /cluster/health, the portal's ops page, and the
// querygraph.StatsSource hook feeding measured weights to the adaptive
// repartitioner. The plane has two parts that ride the same rows: latency
// attribution (latencyplane.go) and engine introspection
// (engineplane.go). One digest period is one StatsTick — called by hand,
// or by the control clock (clock.go) in background mode — and it also
// clocks the parts' SLO and backpressure watchdogs, so their window is
// exactly one period. Digests ride the control transport; the per-tuple
// hot path is untouched.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sspd/internal/coordinator"
	"sspd/internal/metrics"
	"sspd/internal/querygraph"
	"sspd/internal/simnet"
)

// statsPlane owns the per-entity stats nodes and the fold state that
// turns cumulative counters into rates.
type statsPlane struct {
	f        *Federation
	interval time.Duration
	// eng is the engine introspection part; the latency attribution part
	// sits on f.lat, where the tracer's completion hook reads it.
	eng *enginePlane

	mu    sync.Mutex
	nodes map[string]*coordinator.StatsNode
	folds map[string]*foldState
	// srcPrev/srcPrevT/srcRate implement the measured per-stream arrival
	// rate: successive readings of each source's publish counter.
	srcPrev  map[string]int64
	srcPrevT time.Time
	srcRate  map[string]float64
}

// foldState is one entity's differentiation memory between folds.
type foldState struct {
	prevT     time.Time
	prevBusy  map[string]float64 // query -> cumulative busy seconds
	prevBytes map[string]int64   // stream -> cumulative link bytes
	spark     []float64          // recent PR_max samples, oldest first
	// prevDropped/dropSpark carry the entity's engine drop history: the
	// cumulative total at the last fold and the differentiated
	// drops-per-second ring behind the ops-view sparkline.
	prevDropped int64
	dropSpark   []float64
}

// EnableStatsPlane starts the cluster stats federation with its latency
// attribution and engine introspection parts. interval is the digest
// period: interval > 0 puts StatsTick on the control clock (background
// mode is manual mode on a timer); interval <= 0 registers nothing —
// tests then drive the plane deterministically with StatsTick. Sampled
// spans are attributed once tracing is on too, whichever was enabled
// first. Safe to call once, after Start.
func (f *Federation) EnableStatsPlane(interval time.Duration) error {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return fmt.Errorf("core: federation not started")
	}
	if f.stats != nil {
		f.mu.Unlock()
		return fmt.Errorf("core: stats plane already enabled")
	}
	p := &statsPlane{
		f:        f,
		interval: interval,
		eng:      newEnginePlane(f),
		nodes:    make(map[string]*coordinator.StatsNode),
		folds:    make(map[string]*foldState),
		srcPrev:  make(map[string]int64),
		srcRate:  make(map[string]float64),
	}
	f.cluster.RegisterCollector(p.collect)
	f.stats = p
	ids := f.entityIDsLocked()
	f.mu.Unlock()
	for _, id := range ids {
		p.addNode(id)
	}
	lat := newLatencyPlane(f)
	f.lat.Store(lat)
	f.addCollector(lat.collect, false)
	// Cluster-wide: /cluster/metrics serves the same sspd_engine_*
	// families as /metrics.
	f.addCollector(p.eng.collect, true)
	if interval > 0 {
		f.every(interval, f.StatsTick)
	}
	f.logger.Info("stats.enable", "", "cluster stats plane enabled",
		"interval", interval, "entities", len(ids))
	return nil
}

// ClusterRegistry returns the registry serving sspd_cluster_* metrics
// from the root digest (nil until EnableStatsPlane). The portal serves
// it at GET /cluster/metrics.
func (f *Federation) ClusterRegistry() *metrics.Registry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stats == nil {
		return nil
	}
	return f.cluster
}

// StatsTick runs one digest period: every entity's stats node folds and
// pushes once, in sorted entity order, then each watchdog evaluates
// once. In manual mode call Settle afterwards to let the pushed digests
// land. Root coverage of an h-level tree needs h ticks; two suffice for
// typical federations.
func (f *Federation) StatsTick() {
	f.mu.Lock()
	p := f.stats
	f.mu.Unlock()
	if p == nil {
		return
	}
	p.refreshSourceRates()
	p.mu.Lock()
	ids := make([]string, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	nodes := make([]*coordinator.StatsNode, len(ids))
	for i, id := range ids {
		nodes[i] = p.nodes[id]
	}
	p.mu.Unlock()
	for _, n := range nodes {
		n.Tick()
	}
	// The SLO and backpressure watchdogs are clocked by the stats
	// federation: one verdict pass per digest period, over this window's
	// traffic.
	if lat := f.lat.Load(); lat != nil {
		lat.eval()
	}
	p.eng.eval()
}

// ClusterStats returns the merged cluster table as seen by the current
// coordinator-tree root, plus the root's ID. ok is false when the plane
// is disabled or the root runs no stats node yet.
func (f *Federation) ClusterStats() (rows map[string]coordinator.EntityStats, root string, ok bool) {
	f.mu.Lock()
	p := f.stats
	r, _ := f.coord.Root()
	f.mu.Unlock()
	if p == nil || r == "" {
		return nil, string(r), false
	}
	p.mu.Lock()
	n := p.nodes[string(r)]
	p.mu.Unlock()
	if n == nil {
		return nil, string(r), false
	}
	return n.Snapshot(), string(r), true
}

// EntityHealth is one row of the cluster health view.
type EntityHealth struct {
	Entity string `json:"entity"`
	// Up: the entity is currently a federation member.
	Up bool `json:"up"`
	// Fresh: its digest row is younger than three digest periods (always
	// true in manual-tick mode once a row exists).
	Fresh bool `json:"fresh"`
	// Healthy = Up && Fresh.
	Healthy bool `json:"healthy"`
	// AgeSeconds is the digest row's age (-1 when no row has arrived).
	AgeSeconds float64 `json:"age_seconds"`
	Load       float64 `json:"load"`
	Queries    int     `json:"queries"`
	PRMax      float64 `json:"pr_max"`
}

// ClusterHealth merges the root digest with live membership into a
// per-entity health table, sorted by entity ID. Entities present in the
// digest but expelled from the federation appear with Up=false — the
// postmortem trace of a recent failure.
func (f *Federation) ClusterHealth() []EntityHealth {
	rows, _, _ := f.ClusterStats()
	f.mu.Lock()
	p := f.stats
	present := make(map[string]bool, len(f.entities))
	for id := range f.entities {
		present[id] = true
	}
	f.mu.Unlock()
	ids := make(map[string]bool, len(rows)+len(present))
	for id := range rows {
		ids[id] = true
	}
	for id := range present {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	now := time.Now()
	out := make([]EntityHealth, 0, len(sorted))
	for _, id := range sorted {
		h := EntityHealth{Entity: id, Up: present[id], AgeSeconds: -1}
		if row, ok := rows[id]; ok {
			age := row.Age(now)
			h.AgeSeconds = age.Seconds()
			h.Fresh = p == nil || p.interval <= 0 || age <= 3*p.interval
			h.Load = row.Load
			h.Queries = row.Queries
			h.PRMax = row.PRMax
		}
		h.Healthy = h.Up && h.Fresh
		out = append(out, h)
	}
	return out
}

// QueryLoads implements querygraph.StatsSource: the measured load per
// query, merged from the root digest's per-entity rows.
func (f *Federation) QueryLoads() map[string]float64 {
	rows, _, ok := f.ClusterStats()
	if !ok {
		return nil
	}
	out := make(map[string]float64)
	for _, row := range rows {
		for q, l := range row.QueryLoads {
			out[q] = l
		}
	}
	return out
}

// StreamRates implements querygraph.StatsSource: the measured arrival
// rate per stream in tuples/second, differentiated from the sources'
// publish counters.
func (f *Federation) StreamRates() map[string]float64 {
	f.mu.Lock()
	p := f.stats
	f.mu.Unlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]float64, len(p.srcRate))
	for s, r := range p.srcRate {
		out[s] = r
	}
	return out
}

var _ querygraph.StatsSource = (*Federation)(nil)

// MeasuredQueryGraph builds the query graph with measured statistics
// (when the stats plane is warmed up) overriding the nominal estimates —
// the input the adaptive repartitioner is meant to consume. Edge weights
// use the measured per-stream arrival rate (nominal bytes/tuple); vertex
// weights use the digest's measured query loads. Anything not yet
// measured keeps its nominal value.
func (f *Federation) MeasuredQueryGraph(minEdge float64) *querygraph.Graph {
	f.mu.Lock()
	p := f.stats
	f.mu.Unlock()
	if p == nil {
		return f.QueryGraph(minEdge)
	}
	specs, rates := f.graphInputs()
	for s, tps := range f.StreamRates() {
		if r, ok := rates[s]; ok && tps > 0 {
			r.TuplesPerSec = tps
			rates[s] = r
		}
	}
	g := BuildQueryGraph(specs, f.catalog, rates, minEdge)
	querygraph.ApplyLoads(g, f.QueryLoads())
	return g
}

// addNode creates the stats node of one entity.
func (p *statsPlane) addNode(id string) {
	f := p.f
	n, err := coordinator.NewStatsNode(coordinator.MemberID(id), f.transport)
	if err != nil {
		f.logger.Error("stats.enable", id, "stats node registration failed", "err", err)
		return
	}
	n.Fold = func() coordinator.EntityStats { return p.fold(id) }
	n.Parent = func() (simnet.NodeID, bool) {
		f.mu.Lock()
		parent, ok := f.coord.StatsParent(coordinator.MemberID(id))
		f.mu.Unlock()
		if !ok {
			return "", false
		}
		return coordinator.StatsEndpoint(parent), true
	}
	if p.interval > 0 {
		n.MaxAge = 3 * p.interval
	}
	p.mu.Lock()
	p.nodes[id] = n
	p.folds[id] = &foldState{
		prevBusy:  make(map[string]float64),
		prevBytes: make(map[string]int64),
	}
	p.mu.Unlock()
}

// removeNode closes an entity's stats node.
func (p *statsPlane) removeNode(id string) {
	p.mu.Lock()
	n := p.nodes[id]
	delete(p.nodes, id)
	delete(p.folds, id)
	p.mu.Unlock()
	if n != nil {
		_ = n.Close()
	}
}

// close deregisters every node (Federation.Close, after the clock
// stopped).
func (p *statsPlane) close() {
	p.mu.Lock()
	nodes := make([]*coordinator.StatsNode, 0, len(p.nodes))
	for _, n := range p.nodes {
		nodes = append(nodes, n)
	}
	p.nodes = make(map[string]*coordinator.StatsNode)
	p.mu.Unlock()
	for _, n := range nodes {
		_ = n.Close()
	}
}

// refreshSourceRates differentiates the sources' publish counters into
// tuples/second. Guarded against over-eager calls: readings less than
// 10ms apart are skipped (several entities folding in the same period
// only update the rates once).
func (p *statsPlane) refreshSourceRates() {
	f := p.f
	f.mu.Lock()
	counts := make(map[string]int64, len(f.sources))
	for s, src := range f.sources {
		counts[s] = src.published.Value()
	}
	f.mu.Unlock()
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srcPrevT.IsZero() {
		p.srcPrevT = now
		p.srcPrev = counts
		return
	}
	dt := now.Sub(p.srcPrevT).Seconds()
	if dt < 0.01 {
		return
	}
	for s, c := range counts {
		p.srcRate[s] = float64(c-p.srcPrev[s]) / dt
	}
	p.srcPrevT = now
	p.srcPrev = counts
}

// fold builds one entity's EntityStats row from live state: cumulative
// counters are differentiated against the previous fold, measured query
// loads fall back to spec estimates for metric-less engines, and the
// PR_max history ring is carried in the row itself.
func (p *statsPlane) fold(id string) coordinator.EntityStats {
	f := p.f
	p.refreshSourceRates()

	f.mu.Lock()
	en := f.entities[id]
	var qids []string
	specLoad := make(map[string]float64)
	for q, fq := range f.queries {
		if fq.entity == id {
			qids = append(qids, q)
			specLoad[q] = fq.spec.EstimatedLoad()
		}
	}
	relays := make(map[string]*relayRef)
	if en != nil {
		for s, r := range en.relays {
			relays[s] = &relayRef{
				bytes:    r.LinkBytes.Bytes(),
				messages: r.LinkBytes.Messages(),
				sendErrs: r.SendErrors.Value(),
				decErrs:  r.DecodeErrors.Value(),
			}
		}
	}
	f.mu.Unlock()
	if en == nil {
		return coordinator.EntityStats{}
	}
	sort.Strings(qids)

	row := coordinator.EntityStats{
		Load:       en.ent.Load(),
		Queries:    len(qids),
		QueryLoads: make(map[string]float64, len(qids)),
		Streams:    make(map[string]coordinator.StreamStats, len(relays)),
	}

	now := time.Now()
	p.mu.Lock()
	st := p.folds[id]
	if st == nil {
		st = &foldState{prevBusy: make(map[string]float64), prevBytes: make(map[string]int64)}
		p.folds[id] = st
	}
	dt := 0.0
	if !st.prevT.IsZero() {
		dt = now.Sub(st.prevT).Seconds()
	}
	prevBusy := st.prevBusy
	prevBytes := st.prevBytes
	p.mu.Unlock()

	// Per-query measured load: engine busy-seconds per wall second since
	// the last fold; nominal estimate until engines have measured (or
	// forever, for metric-less engines like MiniEngine).
	newBusy := make(map[string]float64, len(qids))
	for _, q := range qids {
		busy, _, ok := en.ent.QueryWork(q)
		if !ok {
			row.QueryLoads[q] = specLoad[q]
			continue
		}
		newBusy[q] = busy
		if prev, seen := prevBusy[q]; seen && dt > 0.01 {
			rate := (busy - prev) / dt
			if rate < 0 {
				rate = 0
			}
			row.QueryLoads[q] = rate
		} else {
			row.QueryLoads[q] = specLoad[q]
		}
	}

	// Per-query drop attribution (full shard rings).
	for _, q := range qids {
		if dropped, ok := en.ent.QueryDrops(q); ok {
			if row.QueryDrops == nil {
				row.QueryDrops = make(map[string]int64, len(qids))
			}
			row.QueryDrops[q] = dropped
		}
	}

	// Per-query PR and the entity PR_max.
	for _, q := range qids {
		if pr, ok := f.QueryPR(q); ok && pr > row.PRMax {
			row.PRMax = pr
		}
	}

	// Per-stream relay traffic with a differentiated byte rate.
	newBytes := make(map[string]int64, len(relays))
	for s, r := range relays {
		ss := coordinator.StreamStats{Bytes: r.bytes, Messages: r.messages}
		newBytes[s] = r.bytes
		if prev, seen := prevBytes[s]; seen && dt > 0.01 {
			bps := float64(r.bytes-prev) / dt
			if bps < 0 {
				bps = 0
			}
			ss.BytesPerSec = bps
		}
		row.Streams[s] = ss
		row.SendErrors += r.sendErrs
		row.DecodeErrors += r.decErrs
	}

	// Entity-level engine drops: the lifetime total plus a
	// differentiated drops-per-second sparkline ring.
	row.Dropped = en.ent.DroppedTotal()

	p.mu.Lock()
	st.prevT = now
	st.prevBusy = newBusy
	st.prevBytes = newBytes
	st.spark = append(st.spark, row.PRMax)
	if len(st.spark) > coordinator.SparkLen {
		st.spark = st.spark[len(st.spark)-coordinator.SparkLen:]
	}
	row.PRSpark = append([]float64(nil), st.spark...)
	dropRate := 0.0
	if dt > 0.01 {
		if r := float64(row.Dropped-st.prevDropped) / dt; r > 0 {
			dropRate = r
		}
	}
	st.prevDropped = row.Dropped
	st.dropSpark = append(st.dropSpark, dropRate)
	if len(st.dropSpark) > coordinator.SparkLen {
		st.dropSpark = st.dropSpark[len(st.dropSpark)-coordinator.SparkLen:]
	}
	row.DropSpark = append([]float64(nil), st.dropSpark...)
	p.mu.Unlock()

	// Latency attribution rides the row so the root can merge cluster
	// percentiles bucket-wise; the engine telemetry snapshot rides the
	// same way for shard heatmaps (nil for an engine with none).
	if lat := f.lat.Load(); lat != nil {
		row.Latency = lat.rowFor(id)
	}
	if es, ok := en.ent.EngineTelemetry(); ok {
		row.Engine = &es
	}
	return row
}

type relayRef struct {
	bytes    int64
	messages int64
	sendErrs int64
	decErrs  int64
}

// collect is the cluster registry's collector: it renders the root
// digest as sspd_cluster_* Prometheus families, every per-entity series
// labeled with `entity`. Maps are ranged as they come: the registry
// orders series at render time.
func (p *statsPlane) collect(emit func(metrics.Sample)) {
	f := p.f
	rows, _, ok := f.ClusterStats()
	health := f.ClusterHealth()

	metrics.EmitGauge(emit, "sspd_cluster_digest_ok", "1 when the tree root serves a merged digest.", b2f(ok))
	if !ok {
		return
	}

	now := time.Now()
	prMax := 0.0
	queries := 0
	for id, row := range rows {
		le := metrics.L("entity", id)
		metrics.EmitGauge(emit, "sspd_cluster_entity_load", "Entity engine load from the cluster digest.", row.Load, le)
		metrics.EmitGauge(emit, "sspd_cluster_entity_queries", "Queries hosted per entity from the cluster digest.",
			float64(row.Queries), le)
		metrics.EmitGauge(emit, "sspd_cluster_entity_pr_max", "Entity-local maximum Performance Ratio from the cluster digest.",
			row.PRMax, le)
		metrics.EmitGauge(emit, "sspd_cluster_digest_age_seconds", "Age of the entity's digest row at the root.",
			row.Age(now).Seconds(), le)
		metrics.EmitCounter(emit, "sspd_cluster_entity_dropped_total",
			"Engine-lifetime tuples dropped per entity, including drops charged to since-unregistered queries.",
			float64(row.Dropped), le)
		metrics.EmitCounter(emit, "sspd_cluster_send_errors_total", "Relay send errors per entity from the cluster digest.",
			float64(row.SendErrors), le)
		metrics.EmitCounter(emit, "sspd_cluster_decode_errors_total", "Relay decode errors per entity from the cluster digest.",
			float64(row.DecodeErrors), le)
		for q, load := range row.QueryLoads {
			metrics.EmitGauge(emit, "sspd_cluster_query_load", "Measured query load from the cluster digest.",
				load, le, metrics.L("query", q))
		}
		for q, dropped := range row.QueryDrops {
			metrics.EmitCounter(emit, "sspd_cluster_query_dropped_total",
				"Tuples dropped per query by full shard rings.",
				float64(dropped), le, metrics.L("query", q))
		}
		for s, ss := range row.Streams {
			ls := metrics.L("stream", s)
			metrics.EmitCounter(emit, "sspd_cluster_stream_bytes_total", "Dissemination bytes per entity and stream.",
				float64(ss.Bytes), le, ls)
			metrics.EmitCounter(emit, "sspd_cluster_stream_messages_total", "Dissemination messages per entity and stream.",
				float64(ss.Messages), le, ls)
			metrics.EmitGauge(emit, "sspd_cluster_stream_bytes_per_sec", "Measured dissemination byte rate per entity and stream.",
				ss.BytesPerSec, le, ls)
		}
		if row.PRMax > prMax {
			prMax = row.PRMax
		}
		queries += row.Queries
	}
	metrics.EmitGauge(emit, "sspd_cluster_entities", "Entities covered by the root digest.", float64(len(rows)))
	metrics.EmitGauge(emit, "sspd_cluster_queries", "Queries covered by the root digest.", float64(queries))
	metrics.EmitGauge(emit, "sspd_cluster_pr_max", "Cluster-wide maximum Performance Ratio from the root digest.", prMax)

	for _, h := range health {
		metrics.EmitGauge(emit, "sspd_cluster_entity_up", "1 when the entity is a live, freshly-reporting member.",
			b2f(h.Healthy), metrics.L("entity", h.Entity))
	}

	// Measured source rates (the StatsSource feed).
	for s, rate := range f.StreamRates() {
		metrics.EmitGauge(emit, "sspd_cluster_stream_tuples_per_sec", "Measured arrival rate at the stream source.",
			rate, metrics.L("stream", s))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
