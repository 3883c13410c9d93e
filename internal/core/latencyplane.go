package core

// The latency attribution part of the stats plane (DESIGN.md §11): the
// tracer's span completion hook decomposes every sampled tuple's journey
// into per-stage wall-clock deltas (dissemination, network, ingest,
// engine, eval) recorded into mergeable log-bucket histograms per
// hosting entity. The per-entity snapshots ride the stats federation's
// EntityStats rows, so the coordinator-tree root answers cluster-wide
// per-stage percentiles by exact bucket-wise merge. On top of the
// merged view the plane derives each query's *measured* performance
// ratio (span delay over span-measured evaluation time, vs. the
// engine-estimated d_k/p_k) and evaluates the SLO rules once per stats
// digest period, journaling slo.breach / slo.clear transitions.
//
// Everything here is driven by completed spans and periodic ticks; the
// unsampled tuple path is untouched.

import (
	"sync"
	"sync/atomic"

	"sspd/internal/latency"
	"sspd/internal/metrics"
	"sspd/internal/trace"
)

// sloRules are the SLO watchdog's rules: end-to-end tail latency and the
// network stage's share of total time, both over the last digest period.
var sloRules = []string{
	"p99_end_to_end < 250ms",
	"stage_share(network) < 60%",
}

// latencyPlane owns the per-entity recorders, the query→recorder
// routing table the completion hook reads, and the SLO watchdog state.
type latencyPlane struct {
	f *Federation
	// rules is the SLO watchdog's bookkeeping (verdicts, breach counts,
	// slo.breach / slo.clear journaling, sspd_slo_* rendering).
	rules *ruleWatch

	// route maps query ID → hosting entity's recorder. Copy-on-write:
	// the completion hook (called from tuple-path goroutines) only loads
	// it, so it never contends with federation locks.
	route atomic.Pointer[map[string]*latency.Recorder]

	mu        sync.Mutex
	recorders map[string]*latency.Recorder // entity → recorder

	// leftover records breakdowns for queries not yet in the routing
	// table (placed after the last refresh) plus incomplete-span
	// bookkeeping; it is merged into the cluster view alongside the
	// federated rows so nothing is silently dropped.
	leftover *latency.Recorder
	// Unrouted counts breakdowns that fell through to leftover.
	Unrouted metrics.Counter
}

func newLatencyPlane(f *Federation) *latencyPlane {
	p := &latencyPlane{
		f: f,
		rules: newRuleWatch(sloRules, f.logger, ruleNames{
			breachKind: "slo.breach", breachMsg: "SLO rule breached",
			clearKind: "slo.clear", clearMsg: "SLO rule recovered",
			stateMetric: "sspd_slo_breached", stateHelp: "1 while the SLO rule is in breach.",
			totalMetric: "sspd_slo_breaches_total", totalHelp: "SLO breach transitions per rule.",
		}),
		recorders: make(map[string]*latency.Recorder),
		leftover:  latency.NewRecorder(),
	}
	p.refreshRoutes()
	return p
}

// ClusterLatency returns the cluster-wide attribution view: the
// bucket-wise merge of every entity's federated latency row (as seen by
// the coordinator-tree root) plus locally buffered leftovers. ok is
// false until both the stats plane and tracing are on.
func (f *Federation) ClusterLatency() (latency.Attribution, bool) {
	p := f.lat.Load()
	if p == nil || f.Tracer() == nil {
		return latency.Attribution{}, false
	}
	var out latency.Attribution
	if rows, _, ok := f.ClusterStats(); ok {
		for _, row := range rows {
			if row.Latency != nil {
				out.Merge(*row.Latency)
			}
		}
	}
	out.Merge(p.leftover.Snapshot())
	return out, true
}

// SLOStatus returns the verdicts of the most recent watchdog tick.
func (f *Federation) SLOStatus() []latency.Verdict {
	p := f.lat.Load()
	if p == nil {
		return nil
	}
	vs, _ := p.rules.status()
	return vs
}

// rowFor is the stats plane's fold hook: one entity's current
// attribution snapshot (nil when the entity has recorded nothing yet).
func (p *latencyPlane) rowFor(id string) *latency.Attribution {
	p.mu.Lock()
	rec := p.recorders[id]
	p.mu.Unlock()
	if rec == nil {
		return nil
	}
	a := rec.Snapshot()
	return &a
}

// onComplete is the tracer's completion hook. It runs on whatever
// goroutine recorded the terminal hop, so it touches only the plane's
// own state — never federation locks.
func (p *latencyPlane) onComplete(s trace.Span, hop int) {
	if hop < 0 {
		p.leftover.OnComplete(s, hop) // counts the incomplete journey
		return
	}
	if s.Hops[hop].Stage == trace.StagePortal {
		return // the result hop that preceded it was already recorded
	}
	bd, ok := latency.Decompose(s, hop)
	if !ok {
		p.leftover.Unattributed.Inc()
		return
	}
	if m := p.route.Load(); m != nil {
		if rec := (*m)[bd.Query]; rec != nil {
			rec.Observe(bd)
			return
		}
	}
	p.Unrouted.Inc()
	p.leftover.Observe(bd)
}

// refreshRoutes rebuilds the copy-on-write query→recorder table from
// the current assignment. Called on placement changes and before every
// watchdog tick; must not run under f.mu.
func (p *latencyPlane) refreshRoutes() {
	f := p.f
	f.mu.Lock()
	assign := make(map[string]string, len(f.queries))
	for q, fq := range f.queries {
		assign[q] = fq.entity
	}
	f.mu.Unlock()
	p.mu.Lock()
	m := make(map[string]*latency.Recorder, len(assign))
	for q, entityID := range assign {
		rec := p.recorders[entityID]
		if rec == nil {
			rec = latency.NewRecorder()
			p.recorders[entityID] = rec
		}
		m[q] = rec
	}
	p.mu.Unlock()
	p.route.Store(&m)
}

// forgetEntity drops a departed entity's recorder; its history stays in
// already-federated rows until they expire.
func (p *latencyPlane) forgetEntity(id string) {
	p.mu.Lock()
	delete(p.recorders, id)
	p.mu.Unlock()
	p.refreshRoutes()
}

// eval runs one watchdog tick: routes are refreshed, the cluster view
// merged, the rules evaluated on this window's traffic, and state
// transitions journaled and counted.
func (p *latencyPlane) eval() []latency.Verdict {
	p.refreshRoutes()
	f := p.f
	att, ok := f.ClusterLatency()
	if !ok {
		return nil
	}
	return p.rules.eval(latency.Observation{E2E: att.E2E, Stages: att.Stages})
}

// collect renders the plane as Prometheus families on the federation
// registry: real histogram families for the merged stage and
// end-to-end distributions, per-query measured PR with its drift from
// the engine estimate, and SLO state.
func (p *latencyPlane) collect(emit func(metrics.Sample)) {
	f := p.f
	att, ok := f.ClusterLatency()
	if !ok {
		return
	}
	hist := func(name, help string, s latency.HistSnapshot, labels ...metrics.Label) {
		if s.Count == 0 || len(s.Counts) == 0 {
			return
		}
		emit(metrics.Sample{Name: name, Help: help, Labels: labels, Hist: &metrics.HistSample{
			Bounds: latency.Bounds(), Counts: s.Counts, Sum: s.Sum,
		}})
	}

	hist("sspd_latency_e2e_seconds", "End-to-end publish-to-result latency of sampled tuples.", att.E2E)
	for st, h := range att.Stages {
		hist("sspd_latency_stage_seconds", "Per-stage latency of sampled tuples.",
			h, metrics.L("stage", st))
	}

	for _, q := range att.Queries {
		lq := metrics.L("query", q.Query)
		metrics.EmitGauge(emit, "sspd_pr_measured", "Measured Performance Ratio per query (span delay over span eval time).",
			q.PRMeasured, lq)
		if est, ok := f.QueryPR(q.Query); ok {
			metrics.EmitGauge(emit, "sspd_pr_drift", "Measured minus estimated Performance Ratio per query.",
				q.PRMeasured-est, lq)
		}
	}

	metrics.EmitCounter(emit, "sspd_latency_incomplete_total", "Sampled spans evicted before reaching a result.",
		float64(att.Incomplete))
	metrics.EmitCounter(emit, "sspd_latency_unrouted_total", "Breakdowns recorded for queries absent from the routing table.",
		float64(p.Unrouted.Value()))

	p.rules.collect(emit)
}
