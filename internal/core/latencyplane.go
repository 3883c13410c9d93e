package core

// The latency attribution plane (DESIGN.md §11): the tracer's span
// completion hook decomposes every sampled tuple's journey into
// per-stage wall-clock deltas (dissemination, network, ingest, engine,
// eval) recorded into mergeable log-bucket histograms per hosting
// entity. The per-entity snapshots ride the stats federation's
// EntityStats rows, so the coordinator-tree root answers cluster-wide
// per-stage percentiles by exact bucket-wise merge. On top of the
// merged view the plane derives each query's *measured* performance
// ratio (span delay over span-measured evaluation time, vs. the
// engine-estimated d_k/p_k) and evaluates declarative SLO rules once
// per stats digest period, journaling slo.breach / slo.clear
// transitions.
//
// Everything here is driven by completed spans and periodic ticks; the
// unsampled tuple path is untouched.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sspd/internal/latency"
	"sspd/internal/metrics"
	"sspd/internal/trace"
)

// DefaultSLORules is the rule set used when EnableLatencyAttribution is
// given none: end-to-end tail latency, worst measured PR, and the
// network stage's share of total time.
var DefaultSLORules = []string{
	"p99_end_to_end < 250ms",
	"pr_max < 3",
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

// EnableLatencyAttribution starts the latency attribution plane.
// Tracing must be enabled first: the plane consumes the tracer's span
// completion hook. rules are SLO rule lines (see latency.ParseRule); none
// installs DefaultSLORules. The SLO watchdog has no clock of its own: it
// evaluates once per stats digest period (StatsTick, manual or on the
// stats plane's background period), or on an explicit SLOTick.
func (f *Federation) EnableLatencyAttribution(rules ...string) error {
	if len(rules) == 0 {
		rules = DefaultSLORules
	}
	parsed, err := latency.ParseRules(rules)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return fmt.Errorf("core: federation not started")
	}
	if f.tracer == nil {
		f.mu.Unlock()
		return fmt.Errorf("core: latency attribution needs tracing (call EnableTracing first)")
	}
	if f.lat != nil {
		f.mu.Unlock()
		return fmt.Errorf("core: latency attribution already enabled")
	}
	p := &latencyPlane{
		f: f,
		rules: newRuleWatch(parsed, f.logger, ruleNames{
			breachKind: "slo.breach", breachMsg: "SLO rule breached",
			clearKind: "slo.clear", clearMsg: "SLO rule recovered",
			stateMetric: "sspd_slo_breached", stateHelp: "1 while the SLO rule is in breach.",
			totalMetric: "sspd_slo_breaches_total", totalHelp: "SLO breach transitions per rule.",
		}),
		recorders: make(map[string]*latency.Recorder),
		leftover:  latency.NewRecorder(),
	}
	f.lat = p
	f.mu.Unlock()

	p.refreshRoutes()
	// The tracer's single completion hook belongs to the federation
	// dispatcher (set at EnableTracing); publishing the plane through the
	// copy-on-write pointer routes completions here without the tuple
	// path ever taking f.mu.
	f.spanLat.Store(p)
	f.addCollector(p.collect, false)
	f.logger.Info("slo.watch", "", "latency attribution plane enabled",
		"rules", len(parsed))
	return nil
}

// LatencyEnabled reports whether the attribution plane is running.
func (f *Federation) LatencyEnabled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lat != nil
}

// ClusterLatency returns the cluster-wide attribution view: the
// bucket-wise merge of every entity's federated latency row (as seen by
// the coordinator-tree root) plus locally buffered leftovers. When the
// stats plane is not enabled the per-entity recorders are merged
// directly. ok is false while the plane is disabled.
func (f *Federation) ClusterLatency() (latency.Attribution, bool) {
	f.mu.Lock()
	p := f.lat
	statsUp := f.stats != nil
	f.mu.Unlock()
	if p == nil {
		return latency.Attribution{}, false
	}
	var out latency.Attribution
	merged := false
	if statsUp {
		if rows, _, ok := f.ClusterStats(); ok {
			for _, row := range rows {
				if row.Latency != nil {
					out.Merge(*row.Latency)
				}
			}
			merged = true
		}
	}
	if !merged {
		p.mu.Lock()
		recs := make([]*latency.Recorder, 0, len(p.recorders))
		for _, r := range p.recorders {
			recs = append(recs, r)
		}
		p.mu.Unlock()
		for _, r := range recs {
			out.Merge(r.Snapshot())
		}
	}
	out.Merge(p.leftover.Snapshot())
	return out, true
}

// SLOTick runs one watchdog evaluation against the current cluster
// view, journaling breach/clear transitions. StatsTick calls this once
// per digest period; exposed for a federation without the stats plane.
// Returns the per-rule verdicts (nil when the plane is disabled).
func (f *Federation) SLOTick() []latency.Verdict {
	f.mu.Lock()
	p := f.lat
	f.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.eval()
}

// SLOStatus returns the verdicts of the most recent watchdog tick.
func (f *Federation) SLOStatus() []latency.Verdict {
	f.mu.Lock()
	p := f.lat
	f.mu.Unlock()
	if p == nil {
		return nil
	}
	vs, _ := p.rules.status()
	return vs
}

// latencyRoutesChanged refreshes the attribution plane's query routing
// table after a placement change. Must be called without f.mu held.
func (f *Federation) latencyRoutesChanged() {
	f.mu.Lock()
	p := f.lat
	f.mu.Unlock()
	if p != nil {
		p.refreshRoutes()
	}
}

// latencyRowFor is the stats plane's fold hook: one entity's current
// attribution snapshot (nil when the plane is off or the entity has
// recorded nothing yet).
func (f *Federation) latencyRowFor(id string) *latency.Attribution {
	f.mu.Lock()
	p := f.lat
	f.mu.Unlock()
	if p == nil {
		return nil
	}
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
	prMax := 0.0
	for _, q := range att.Queries {
		if q.PRMeasured > prMax {
			prMax = q.PRMeasured
		}
	}
	return p.rules.eval(latency.Observation{
		E2E:    att.E2E,
		Stages: att.Stages,
		PRMax:  prMax,
	})
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
