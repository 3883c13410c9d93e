package core

// The Adaptation Module plane (paper §4.2, DESIGN.md §15): the
// federation half of per-tuple adaptive downstream selection. Entities
// replicate middle query fragments into candidate sets and route every
// inter-fragment tuple through a shared DownstreamChooser; this plane
// closes the feedback loop by turning latency-attribution trace
// completions into per-candidate delay observations fed back into the
// choosers via Report. Routing tables are copy-on-write (the same
// pattern as latencyPlane): the span-completion hook — which runs on
// tuple-path goroutines — only ever loads an atomic pointer, never a
// federation lock, and the per-tuple Choose itself reads no clock; all
// timing comes from sampled trace hops.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sspd/internal/entity"
	"sspd/internal/metrics"
	"sspd/internal/trace"
)

// amRoute is one routed candidate's resolution: which entity, query,
// and fragment boundary the candidate instance belongs to, and the
// shared chooser scoring it.
type amRoute struct {
	entityID string
	query    string
	boundary string
	chooser  *entity.DownstreamChooser
}

// amPlane owns the candidate→route table and the switch bookkeeping.
type amPlane struct {
	f *Federation

	// route maps candidate instance ID ("q#1@r0", federation-unique
	// because query IDs are) → its route. Copy-on-write: the completion
	// hook only loads it.
	route atomic.Pointer[map[string]amRoute]

	// reports counts delay observations fed into choosers; switches
	// counts preferred-candidate changes.
	reports  metrics.Counter
	switches metrics.Counter

	mu sync.Mutex
	// best remembers each boundary's last preferred candidate
	// (entity/query/boundary key) to detect switches.
	best map[string]string
}

func newAMPlane(f *Federation) *amPlane {
	p := &amPlane{f: f, best: make(map[string]string)}
	empty := make(map[string]amRoute)
	p.route.Store(&empty)
	return p
}

// refreshRoutes rebuilds the copy-on-write candidate table from every
// entity's current route bindings. Called on placement changes; must
// not run under f.mu (RouteBindings takes the entity lock).
func (p *amPlane) refreshRoutes() {
	f := p.f
	f.mu.Lock()
	ents := make([]*entityNode, 0, len(f.entities))
	for _, en := range f.entities {
		ents = append(ents, en)
	}
	f.mu.Unlock()
	m := make(map[string]amRoute)
	for _, en := range ents {
		for _, rb := range en.ent.RouteBindings() {
			m[rb.Candidate] = amRoute{
				entityID: en.id,
				query:    rb.Query,
				boundary: rb.Boundary,
				chooser:  rb.Chooser,
			}
		}
	}
	p.route.Store(&m)
}

// onSpanComplete mines a finished span for candidate delays: a routed
// emit stamps a StageOperator hop under the chosen candidate's instance
// ID (again at the remote receive, collapsed here as a same-node run),
// so the candidate's observed delay is the wall-clock distance from its
// first hop to the first hop AFTER the run — network transfer plus
// queueing plus processing on the candidate, exactly the signal that
// separates a slowed processor from a healthy one. Runs on the
// recording goroutine; touches only plane-local state.
func (p *amPlane) onSpanComplete(s trace.Span, hop int) {
	if hop < 0 {
		return // evicted without completing; no trustworthy terminal hop
	}
	m := p.route.Load()
	if m == nil || len(*m) == 0 {
		return
	}
	hops := s.Hops
	for i := 0; i < len(hops); i++ {
		h := hops[i]
		if h.Stage != trace.StageOperator {
			continue
		}
		rt, ok := (*m)[h.Node]
		if !ok {
			continue
		}
		j := i + 1
		for j < len(hops) && hops[j].Stage == trace.StageOperator && hops[j].Node == h.Node {
			j++
		}
		if j < len(hops) {
			d := hops[j].At.Sub(h.At).Seconds()
			if d < 0 {
				d = 0
			}
			p.observe(rt, h.Node, d)
		}
		i = j - 1
	}
}

// observe feeds one measured delay into the candidate's chooser and
// journals exploration observations and preferred-candidate switches.
func (p *amPlane) observe(rt amRoute, candidate string, delaySeconds float64) {
	prev := rt.chooser.Best()
	rt.chooser.Report(candidate, delaySeconds)
	p.reports.Inc()
	if prev != "" && candidate != prev {
		// A measurement for a non-best candidate: the cold-start
		// rotation or an explore tick paid off with fresh data.
		p.f.logger.Debug("am.explore", rt.entityID, "probed non-best candidate",
			"query", rt.query, "boundary", rt.boundary, "candidate", candidate,
			"delay", fmt.Sprintf("%.6g", delaySeconds))
	}
	now := rt.chooser.Best()
	if now == "" {
		return
	}
	key := rt.entityID + "/" + rt.query + "/" + rt.boundary
	p.mu.Lock()
	old, had := p.best[key]
	changed := now != old
	if changed {
		p.best[key] = now
	}
	p.mu.Unlock()
	if !changed {
		return
	}
	if had {
		p.switches.Inc()
	}
	p.f.logger.Info("am.route", rt.entityID, "preferred downstream candidate changed",
		"query", rt.query, "boundary", rt.boundary, "candidate", now, "from", old)
}

// collect renders the sspd_am_* routing families.
func (p *amPlane) collect(emit func(metrics.Sample)) {
	metrics.EmitCounter(emit, "sspd_am_reports_total", "Per-candidate delay observations fed into downstream choosers.",
		float64(p.reports.Value()))
	metrics.EmitCounter(emit, "sspd_am_route_switches_total", "Preferred-downstream-candidate changes across routed boundaries.",
		float64(p.switches.Value()))

	m := p.route.Load()
	if m == nil {
		return
	}
	var routed, explored int64
	seen := make(map[*entity.DownstreamChooser]bool)
	for id, rt := range *m {
		if !seen[rt.chooser] {
			seen[rt.chooser] = true
			routed += rt.chooser.RoutedCount()
			explored += rt.chooser.ExploredCount()
		}
		metrics.EmitGauge(emit, "sspd_am_candidate_delay_seconds", "Smoothed observed delay per downstream candidate.",
			rt.chooser.Score(id),
			metrics.L("query", rt.query), metrics.L("boundary", rt.boundary), metrics.L("candidate", id))
	}
	metrics.EmitCounter(emit, "sspd_am_routed_total", "Per-tuple downstream routing decisions made.", float64(routed))
	metrics.EmitCounter(emit, "sspd_am_explored_total", "Routing decisions that probed a non-best candidate.", float64(explored))
}

// collectAM emits the Adaptation Module families: reorder totals always
// (AdaptOrdering sweeps work without tuple routing), routing families
// when the plane is live. Registered cluster-wide, so GET /metrics and
// GET /cluster/metrics agree.
func (f *Federation) collectAM(emit func(metrics.Sample)) {
	metrics.EmitCounter(emit, "sspd_am_reorders_total", "Operator reorders applied by AdaptOrdering sweeps.",
		float64(f.amReorders.Value()))
	if f.am != nil {
		f.am.collect(emit)
	}
}

// routesChanged refreshes every copy-on-write routing table derived
// from the current placement: the latency plane's query→recorder map
// and the AM plane's candidate table. Called after any placement
// change; must not run under f.mu.
func (f *Federation) routesChanged() {
	if p := f.lat.Load(); p != nil {
		p.refreshRoutes()
	}
	if f.am != nil {
		f.am.refreshRoutes()
	}
}

// dispatchSpanComplete is the tracer's single completion hook: it fans
// finished spans out to the planes that consume them through
// an atomic pointer (f.lat) or pointers immutable after New (f.am), so
// the tuple-path goroutine recording the terminal hop never touches f.mu.
func (f *Federation) dispatchSpanComplete(s trace.Span, hop int) {
	if p := f.lat.Load(); p != nil {
		p.onComplete(s, hop)
	}
	if f.am != nil {
		f.am.onSpanComplete(s, hop)
	}
}

// RouteStatus is one routed candidate's externally visible state,
// served at GET /routing.
type RouteStatus struct {
	Query     string `json:"query"`
	Boundary  string `json:"boundary"`
	Candidate string `json:"candidate"`
	// DelaySeconds is the smoothed observed delay (0 until measured).
	DelaySeconds float64 `json:"delay_seconds"`
	// Best marks the boundary's currently preferred candidate.
	Best bool `json:"best"`
}

// AdaptationRoutes lists every routed boundary's candidates with their
// current smoothed delays, sorted by query then candidate. Empty when
// tuple routing is disabled or nothing routed is placed.
func (f *Federation) AdaptationRoutes() []RouteStatus {
	if f.am == nil {
		return nil
	}
	m := f.am.route.Load()
	if m == nil {
		return nil
	}
	out := make([]RouteStatus, 0, len(*m))
	for id, rt := range *m {
		out = append(out, RouteStatus{
			Query:        rt.query,
			Boundary:     rt.boundary,
			Candidate:    id,
			DelaySeconds: rt.chooser.Score(id),
			Best:         rt.chooser.Best() == id,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Query != out[b].Query {
			return out[a].Query < out[b].Query
		}
		return out[a].Candidate < out[b].Candidate
	})
	return out
}
