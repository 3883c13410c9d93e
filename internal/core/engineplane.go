package core

// The engine introspection part of the stats plane (DESIGN.md §14):
// per-shard telemetry snapshots federated up the coordinator stats tree,
// a backpressure watchdog reusing the SLO rule machinery over windowed
// engine-level quantities (drop rate, p99 ring occupancy), and
// sspd_engine_* metric families rendered on both the local and the
// cluster registry. The watchdog is clocked by the stats digest period —
// one evaluation per StatsTick, so its window is exactly one period — and
// journals engine.saturated / engine.recovered transitions and, when
// continuous profiling is enabled, triggers a capture on the saturation
// edge — so the profile ring holds the flame graph of the overload, not
// of the quiet aftermath.
//
// Snapshots walk engine atomics at tick/scrape time; the tuple path is
// untouched.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/latency"
	"sspd/internal/metrics"
	"sspd/internal/profile"
)

// engineRules are the backpressure watchdog's rules: the engine is
// saturated when more than 1% of offered tuples drop in a window, or when
// the 99th percentile enqueue-time ring occupancy exceeds 75% of
// capacity.
var engineRules = []string{
	"drop_rate < 1%",
	"ring_occupancy_p99 < 75%",
}

// EntityEngine is one entity's row in the cluster engine view.
type EntityEngine struct {
	Entity string `json:"entity"`
	// Dropped is the entity's engine-lifetime dropped-tuple total;
	// DropSpark its recent drops-per-second history (stats-plane folds,
	// oldest first).
	Dropped   int64     `json:"dropped"`
	DropSpark []float64 `json:"drop_spark,omitempty"`
	// Stats is the entity's merged shard telemetry.
	Stats engine.EngineStats `json:"stats"`
}

// ClusterEngineView is the GET /cluster/engine payload: every entity's
// shard telemetry plus the watchdog's last windowed readings.
type ClusterEngineView struct {
	Entities []EntityEngine `json:"entities"`
	// DropRate and RingOccP99 are the last watchdog window's readings.
	DropRate   float64 `json:"drop_rate"`
	RingOccP99 float64 `json:"ring_occupancy_p99"`
	// Saturated is true while any backpressure rule is in breach.
	Saturated bool `json:"saturated"`
	// Verdicts is the last watchdog evaluation, in rule order.
	Verdicts []latency.Verdict `json:"verdicts,omitempty"`
}

// enginePlane owns the backpressure watchdog's differencing state and
// the sspd_engine_* collector.
type enginePlane struct {
	f *Federation
	// rules is the backpressure watchdog's bookkeeping (verdicts,
	// saturation counts, engine.saturated / engine.recovered journaling,
	// sspd_engine_saturat* rendering).
	rules *ruleWatch

	mu sync.Mutex
	// prevOffered/prevDropped/prevHist are the cumulative cluster totals
	// at the previous tick; eval differences against them so the rules
	// see only the last window's traffic and a breach clears once the
	// overload stops.
	prevOffered int64
	prevDropped int64
	prevHist    []int64
	// lastDropRate/lastOcc are the last window's readings (the view and
	// the gauges re-serve them between ticks).
	lastDropRate float64
	lastOcc      float64
}

func newEnginePlane(f *Federation) *enginePlane {
	return &enginePlane{
		f: f,
		rules: newRuleWatch(engineRules, f.logger, ruleNames{
			breachKind: "engine.saturated", breachMsg: "engine backpressure rule breached",
			clearKind: "engine.recovered", clearMsg: "engine backpressure rule recovered",
			stateMetric: "sspd_engine_saturated", stateHelp: "1 while the backpressure rule is in breach.",
			totalMetric: "sspd_engine_saturations_total", totalHelp: "Saturation transitions per backpressure rule.",
		}),
	}
}

// ClusterEngine returns the cluster engine view. Entities federated
// through the stats plane contribute their digest rows (so the root
// answers for remote entities too); locally hosted entities not yet
// covered by a digest are read live. ok is false while the stats plane
// is off.
func (f *Federation) ClusterEngine() (ClusterEngineView, bool) {
	f.mu.Lock()
	stats := f.stats
	f.mu.Unlock()
	if stats == nil {
		return ClusterEngineView{}, false
	}
	p := stats.eng
	byID := make(map[string]EntityEngine)
	for _, ee := range f.liveEngineEntities() {
		byID[ee.Entity] = ee
	}
	if rows, _, ok := f.ClusterStats(); ok {
		for id, row := range rows {
			if row.Engine == nil {
				continue
			}
			byID[id] = EntityEngine{
				Entity:    id,
				Dropped:   row.Dropped,
				DropSpark: append([]float64(nil), row.DropSpark...),
				Stats:     *row.Engine,
			}
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	view := ClusterEngineView{Entities: make([]EntityEngine, 0, len(ids))}
	for _, id := range ids {
		view.Entities = append(view.Entities, byID[id])
	}
	p.mu.Lock()
	view.DropRate = p.lastDropRate
	view.RingOccP99 = p.lastOcc
	p.mu.Unlock()
	view.Verdicts, view.Saturated = p.rules.status()
	return view, true
}

// liveEngineEntities reads every locally hosted entity's telemetry
// directly (no digest lag); entities with no introspectable engine are
// omitted.
func (f *Federation) liveEngineEntities() []EntityEngine {
	f.mu.Lock()
	ents := make(map[string]*entity.Entity, len(f.entities))
	for id, en := range f.entities {
		ents[id] = en.ent
	}
	f.mu.Unlock()
	ids := make([]string, 0, len(ents))
	for id := range ents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]EntityEngine, 0, len(ids))
	for _, id := range ids {
		ent := ents[id]
		es, ok := ent.EngineTelemetry()
		if !ok {
			continue
		}
		out = append(out, EntityEngine{Entity: id, Dropped: ent.DroppedTotal(), Stats: es})
	}
	return out
}

// eval runs one watchdog tick: cumulative cluster totals are read live,
// differenced into this window's drop rate and occupancy percentile,
// and the rules evaluated; saturation transitions are journaled and the
// saturation edge triggers a profile capture.
func (p *enginePlane) eval() []latency.Verdict {
	f := p.f
	var offered, dropped, ringCap int64
	hist := make([]int64, engine.OccBuckets)
	for _, ee := range f.liveEngineEntities() {
		t := ee.Stats.Totals()
		offered += t.Offered
		dropped += t.Dropped
		if t.RingCap > ringCap {
			ringCap = t.RingCap
		}
		for i, c := range t.OccHist {
			if i < len(hist) {
				hist[i] += c
			}
		}
	}

	p.mu.Lock()
	winOff := offered - p.prevOffered
	winDrop := dropped - p.prevDropped
	winHist := make([]int64, len(hist))
	for i := range hist {
		winHist[i] = hist[i]
		if p.prevHist != nil && i < len(p.prevHist) {
			winHist[i] -= p.prevHist[i]
		}
	}
	p.prevOffered, p.prevDropped, p.prevHist = offered, dropped, hist
	p.mu.Unlock()

	o := latency.Observation{}
	if winOff > 0 {
		o.EngineWindow = true
		o.DropRate = float64(winDrop) / float64(winOff)
		o.RingOccP99 = engine.OccP99(winHist, ringCap)
	}
	if o.EngineWindow {
		p.mu.Lock()
		p.lastDropRate, p.lastOcc = o.DropRate, o.RingOccP99
		p.mu.Unlock()
	}
	vs := p.rules.eval(o)
	if prof := f.Profiler(); prof != nil {
		for _, v := range vs {
			if v.Transition && v.Breached {
				// Capture the overload while it is happening.
				prof.Trigger(v.Rule.Raw)
			}
		}
	}
	return vs
}

// collect renders the plane as sspd_engine_* Prometheus families, on
// both the federation registry (GET /metrics) and the cluster registry
// (GET /cluster/metrics).
func (p *enginePlane) collect(emit func(metrics.Sample)) {
	f := p.f

	view, ok := f.ClusterEngine()
	if !ok {
		return
	}
	for _, ee := range view.Entities {
		le := metrics.L("entity", ee.Entity)
		t := ee.Stats.Totals()
		metrics.EmitGauge(emit, "sspd_engine_queries", "Queries installed across the entity's shard engines.",
			float64(ee.Stats.Queries), le)
		metrics.EmitCounter(emit, "sspd_engine_offered_total", "Tuples offered to shard rings per entity.",
			float64(t.Offered), le)
		metrics.EmitCounter(emit, "sspd_engine_dropped_total",
			"Engine-lifetime tuples dropped per entity, including since-unregistered queries.",
			float64(ee.Dropped), le)
		metrics.EmitCounter(emit, "sspd_engine_batches_total", "(query, batch) feeds executed per entity.",
			float64(t.Batches), le)
		metrics.EmitCounter(emit, "sspd_engine_tuples_total", "Tuples processed per entity by execution path.",
			float64(t.KernelTuples), le, metrics.L("path", "kernel"))
		metrics.EmitCounter(emit, "sspd_engine_tuples_total", "Tuples processed per entity by execution path.",
			float64(t.InterpTuples), le, metrics.L("path", "interpreted"))
		metrics.EmitGauge(emit, "sspd_engine_kernel_selectivity",
			"Fraction of rows entering the filter kernels that survive into the stateful tail.",
			t.Selectivity(), le)
		metrics.EmitGauge(emit, "sspd_engine_kernel_share",
			"Fraction of processed tuples that took the vectorized kernel path.",
			t.KernelShare(), le)
		metrics.EmitCounter(emit, "sspd_engine_ctl_total", "Control items processed by shard goroutines per entity.",
			float64(t.CtlItems), le)
		metrics.EmitCounter(emit, "sspd_engine_ctl_wait_seconds_total",
			"Cumulative control-item ring queueing latency per entity.",
			float64(t.CtlWaitNs)/1e9, le)
		for _, sh := range ee.Stats.Shards {
			ls := []metrics.Label{le, metrics.L("engine", sh.Engine),
				metrics.L("shard", fmt.Sprintf("%d", sh.Shard))}
			metrics.EmitGauge(emit, "sspd_engine_shard_occupancy", "Instantaneous shard-ring depth.",
				float64(sh.Occupancy), ls...)
			metrics.EmitGauge(emit, "sspd_engine_shard_high_water", "Worst shard-ring occupancy any enqueue observed.",
				float64(sh.HighWater), ls...)
			metrics.EmitCounter(emit, "sspd_engine_shard_dropped_total", "Tuples refused by the full shard ring.",
				float64(sh.Dropped), ls...)
		}
	}

	metrics.EmitGauge(emit, "sspd_engine_drop_rate", "Dropped/offered ratio of the last watchdog window.",
		view.DropRate)
	metrics.EmitGauge(emit, "sspd_engine_ring_occupancy_p99",
		"p99 enqueue-time ring occupancy (fraction of capacity) of the last watchdog window.",
		view.RingOccP99)

	p.rules.collect(emit)

	var captures float64
	if prof := f.Profiler(); prof != nil {
		captures = float64(prof.Total())
	}
	metrics.EmitCounter(emit, "sspd_engine_profile_captures_total", "Profiles stored by the continuous profiling ring.",
		captures)
}

// EnableProfiling starts the continuous profiling hook: periodic CPU
// and heap captures into a bounded on-disk ring under dir, served at
// GET /profiles. A positive period runs the capture round on the control
// clock; with period <= 0 captures happen only when the backpressure
// watchdog triggers them. Every
// stored capture is journaled as profile.captured.
func (f *Federation) EnableProfiling(dir string, period time.Duration) error {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return fmt.Errorf("core: federation not started")
	}
	if f.prof != nil {
		f.mu.Unlock()
		return fmt.Errorf("core: profiling already enabled")
	}
	f.mu.Unlock()
	rec, err := profile.NewRecorder(profile.Options{Dir: dir})
	if err != nil {
		return err
	}
	rec.SetOnCapture(func(c profile.Capture) {
		f.logger.Info("profile.captured", "", "profile stored",
			"name", c.Name, "kind", c.Kind, "reason", c.Reason,
			"bytes", fmt.Sprintf("%d", c.Bytes))
	})
	f.mu.Lock()
	if f.prof != nil {
		f.mu.Unlock()
		rec.Close()
		return fmt.Errorf("core: profiling already enabled")
	}
	f.prof = rec
	f.mu.Unlock()
	if period > 0 {
		f.every(period, func() { rec.Trigger("periodic") })
	}
	f.logger.Info("profile.enable", "", "continuous profiling enabled",
		"dir", dir, "period", period)
	return nil
}

// Profiler returns the profile recorder (nil until EnableProfiling).
func (f *Federation) Profiler() *profile.Recorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.prof
}
