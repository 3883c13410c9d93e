package latency

import (
	"sort"
	"sync"

	"sspd/internal/metrics"
	"sspd/internal/trace"
)

// MaxQueries bounds the Recorder's per-query histogram table. Results
// for queries beyond the cap still feed the per-stage and end-to-end
// histograms; only their per-query breakdown is dropped (and counted).
const MaxQueries = 512

// Recorder consumes completed trace spans (wired as the tracer's
// completion hook) and maintains the entity-local attribution state:
// one mergeable histogram per pipeline stage, one end-to-end histogram,
// and bounded per-query end-to-end + evaluation histograms from which
// the *measured* performance ratio is derived.
//
// All methods are safe for concurrent use; OnComplete is called from
// whatever goroutine recorded the terminal hop.
type Recorder struct {
	mu      sync.Mutex
	stages  map[string]*Hist
	e2e     Hist
	queries map[string]*queryLat

	// Completed counts spans decomposed and recorded; Incomplete counts
	// spans evicted from the trace ring before any terminal hop;
	// Unattributed counts terminal spans Decompose rejected (malformed
	// hop chains); Overflow counts results whose per-query breakdown was
	// dropped at MaxQueries.
	Completed    metrics.Counter
	Incomplete   metrics.Counter
	Unattributed metrics.Counter
	Overflow     metrics.Counter
}

type queryLat struct {
	e2e  Hist
	eval Hist

	mu sync.Mutex
	// stageSum accumulates per-stage seconds for this query's results;
	// divided by the e2e count it yields the waterfall segment means.
	stageSum map[string]float64
}

func (ql *queryLat) addStages(st map[string]float64) {
	ql.mu.Lock()
	if ql.stageSum == nil {
		ql.stageSum = make(map[string]float64, len(Stages))
	}
	for s, sec := range st {
		ql.stageSum[s] += sec
	}
	ql.mu.Unlock()
}

func (ql *queryLat) waterfall(count uint64) map[string]float64 {
	if count == 0 {
		return nil
	}
	ql.mu.Lock()
	defer ql.mu.Unlock()
	if len(ql.stageSum) == 0 {
		return nil
	}
	out := make(map[string]float64, len(ql.stageSum))
	for s, sum := range ql.stageSum {
		out[s] = sum / float64(count)
	}
	return out
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	r := &Recorder{
		stages:  make(map[string]*Hist, len(Stages)),
		queries: make(map[string]*queryLat),
	}
	for _, st := range Stages {
		r.stages[st] = &Hist{}
	}
	return r
}

// OnComplete is the trace.CompleteFunc feeding the recorder. Result
// hops are decomposed and recorded; portal hops are skipped (the result
// hop that preceded them already was); eviction finalizations (hop < 0)
// are counted as incomplete journeys.
func (r *Recorder) OnComplete(s trace.Span, hop int) {
	if hop < 0 {
		r.Incomplete.Inc()
		return
	}
	if s.Hops[hop].Stage == trace.StagePortal {
		return
	}
	bd, ok := Decompose(s, hop)
	if !ok {
		r.Unattributed.Inc()
		return
	}
	r.Observe(bd)
}

// Observe folds one breakdown into the recorder.
func (r *Recorder) Observe(bd Breakdown) {
	r.mu.Lock()
	for st, sec := range bd.Stage {
		h, ok := r.stages[st]
		if !ok {
			h = &Hist{}
			r.stages[st] = h
		}
		h.Observe(sec)
	}
	r.e2e.Observe(bd.E2E)
	q, ok := r.queries[bd.Query]
	if !ok {
		if len(r.queries) >= MaxQueries {
			r.mu.Unlock()
			r.Completed.Inc()
			r.Overflow.Inc()
			return
		}
		q = &queryLat{}
		r.queries[bd.Query] = q
	}
	r.mu.Unlock()
	q.e2e.Observe(bd.E2E)
	q.eval.Observe(bd.Stage[StageEval])
	q.addStages(bd.Stage)
	r.Completed.Inc()
}

// QueryLatency is one query's measured latency summary.
type QueryLatency struct {
	Query string `json:"query"`
	// E2E is the measured publish → result distribution.
	E2E HistSnapshot `json:"e2e"`
	// EvalMean is the mean measured operator-evaluation time (seconds).
	EvalMean float64 `json:"eval_mean"`
	// PRMeasured is the measured performance ratio: mean end-to-end
	// delay over mean evaluation time — the span-derived counterpart of
	// the engine's estimated PR = d_k / p_k.
	PRMeasured float64 `json:"pr_measured"`
	// Stages is the query's latency waterfall: mean seconds spent in
	// each pipeline stage. The segment means telescope — they sum to the
	// query's mean end-to-end delay.
	Stages map[string]float64 `json:"stages,omitempty"`
}

// Attribution is a point-in-time snapshot of a recorder — the unit
// federated through the coordinator's stats rows. Stage and E2E
// snapshots are cumulative and mergeable bucket-wise.
type Attribution struct {
	// E2E is the all-queries end-to-end distribution.
	E2E HistSnapshot `json:"e2e"`
	// Stages maps each pipeline stage to its delta distribution.
	Stages map[string]HistSnapshot `json:"stages,omitempty"`
	// Queries holds per-query summaries, sorted by query ID.
	Queries []QueryLatency `json:"queries,omitempty"`
	// Incomplete counts sampled spans evicted before reaching a result.
	Incomplete int64 `json:"incomplete,omitempty"`
}

// Snapshot captures the recorder's full state.
func (r *Recorder) Snapshot() Attribution {
	r.mu.Lock()
	a := Attribution{
		E2E:        r.e2e.Snapshot(),
		Stages:     make(map[string]HistSnapshot, len(r.stages)),
		Incomplete: r.Incomplete.Value(),
	}
	for st, h := range r.stages {
		a.Stages[st] = h.Snapshot()
	}
	qs := make(map[string]*queryLat, len(r.queries))
	for q, ql := range r.queries {
		qs[q] = ql
	}
	r.mu.Unlock()

	a.Queries = make([]QueryLatency, 0, len(qs))
	for q, ql := range qs {
		e2e := ql.e2e.Snapshot()
		a.Queries = append(a.Queries, QueryLatency{
			Query:      q,
			E2E:        e2e,
			EvalMean:   ql.eval.Snapshot().Mean(),
			PRMeasured: prOf(ql),
			Stages:     ql.waterfall(e2e.Count),
		})
	}
	sort.Slice(a.Queries, func(i, j int) bool { return a.Queries[i].Query < a.Queries[j].Query })
	return a
}

func prOf(ql *queryLat) float64 {
	eval := ql.eval.Snapshot().Mean()
	if eval <= 0 {
		return 0
	}
	return ql.e2e.Snapshot().Mean() / eval
}

// Merge folds another attribution snapshot into a (bucket-wise exact
// for the histograms; per-query rows are merged by query ID). Used by
// the coordinator root to answer cluster-wide percentiles.
func (a *Attribution) Merge(other Attribution) {
	a.E2E.Merge(other.E2E)
	if a.Stages == nil && len(other.Stages) > 0 {
		a.Stages = make(map[string]HistSnapshot, len(other.Stages))
	}
	for st, hs := range other.Stages {
		cur := a.Stages[st]
		cur.Merge(hs)
		a.Stages[st] = cur
	}
	a.Incomplete += other.Incomplete
	if len(other.Queries) == 0 {
		return
	}
	byQ := make(map[string]int, len(a.Queries))
	for i := range a.Queries {
		byQ[a.Queries[i].Query] = i
	}
	for _, q := range other.Queries {
		i, ok := byQ[q.Query]
		if !ok {
			a.Queries = append(a.Queries, q)
			continue
		}
		dst := &a.Queries[i]
		// Recombine the ratio and waterfall from count-weighted means so
		// a query whose fragments report from several entities keeps a
		// coherent PR and stage breakdown.
		te := dst.E2E.Count + q.E2E.Count
		if te > 0 {
			dst.EvalMean = (dst.EvalMean*float64(dst.E2E.Count) + q.EvalMean*float64(q.E2E.Count)) / float64(te)
			merged := make(map[string]float64, len(dst.Stages)+len(q.Stages))
			for st, m := range dst.Stages {
				merged[st] += m * float64(dst.E2E.Count)
			}
			for st, m := range q.Stages {
				merged[st] += m * float64(q.E2E.Count)
			}
			for st := range merged {
				merged[st] /= float64(te)
			}
			if len(merged) > 0 {
				dst.Stages = merged
			}
		}
		dst.E2E.Merge(q.E2E)
		if dst.EvalMean > 0 {
			dst.PRMeasured = dst.E2E.Mean() / dst.EvalMean
		}
	}
	sort.Slice(a.Queries, func(i, j int) bool { return a.Queries[i].Query < a.Queries[j].Query })
}
