package latency

import (
	"math"
	"testing"
	"time"

	"sspd/internal/trace"
)

// mkSpan builds a span whose hops occur at fixed millisecond offsets
// from a base time, so stage deltas are exactly predictable.
func mkSpan(hops ...[2]any) trace.Span {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s := trace.Span{ID: 1, Stream: "quotes", Start: base}
	for _, h := range hops {
		ms := h[1].(int)
		s.Hops = append(s.Hops, trace.Hop{
			Stage: h[0].(string), Node: "n",
			At: base.Add(time.Duration(ms) * time.Millisecond),
		})
	}
	return s
}

func TestDecomposeFullChain(t *testing.T) {
	s := mkSpan(
		[2]any{trace.StagePublish, 0},
		[2]any{trace.StageRelay, 10},
		[2]any{trace.StageDeliver, 30},
		[2]any{trace.StageDelegate, 35},
		[2]any{trace.StageOperator, 45},
		[2]any{trace.StageResult, 100},
	)
	s.Hops[5].Node = "q1"
	bd, ok := Decompose(s, 5)
	if !ok {
		t.Fatal("Decompose rejected a well-formed chain")
	}
	if bd.Query != "q1" || bd.Stream != "quotes" {
		t.Fatalf("attribution: %+v", bd)
	}
	want := map[string]float64{
		StageDissemination: 0.010,
		StageNetwork:       0.020,
		StageIngest:        0.005,
		StageEngine:        0.010,
		StageEval:          0.055,
	}
	for st, w := range want {
		if g := bd.Stage[st]; math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", st, g, w)
		}
	}
	assertTelescoping(t, bd)
}

// TestDecomposeInterleavedFanOut: a tuple matching two queries records
// operator/result hops for both, interleaved. Each result must be
// attributed through its own chain, not the other query's hops.
func TestDecomposeInterleavedFanOut(t *testing.T) {
	s := mkSpan(
		[2]any{trace.StagePublish, 0},
		[2]any{trace.StageRelay, 5},
		[2]any{trace.StageDeliver, 10},
		[2]any{trace.StageDelegate, 12},
		[2]any{trace.StageOperator, 20}, // q1's fragment
		[2]any{trace.StageResult, 40},   // q1
		[2]any{trace.StageOperator, 50}, // q2's fragment
		[2]any{trace.StageResult, 90},   // q2
	)
	s.Hops[5].Node, s.Hops[7].Node = "q1", "q2"
	b1, ok1 := Decompose(s, 5)
	b2, ok2 := Decompose(s, 7)
	if !ok1 || !ok2 {
		t.Fatal("Decompose rejected fan-out chains")
	}
	if math.Abs(b1.Stage[StageEval]-0.020) > 1e-9 {
		t.Errorf("q1 eval = %g, want 0.020", b1.Stage[StageEval])
	}
	// q2's eval must anchor at its own operator hop (50ms), not q1's.
	if math.Abs(b2.Stage[StageEval]-0.040) > 1e-9 {
		t.Errorf("q2 eval = %g, want 0.040", b2.Stage[StageEval])
	}
	if b1.Query != "q1" || b2.Query != "q2" {
		t.Fatalf("queries: %q, %q", b1.Query, b2.Query)
	}
	assertTelescoping(t, b1)
	assertTelescoping(t, b2)
}

// TestDecomposeMissingStages: a loopback delivery has no relay hop; the
// missing stage contributes zero and its time flows into the next
// segment, keeping the sum telescoping.
func TestDecomposeMissingStages(t *testing.T) {
	s := mkSpan(
		[2]any{trace.StagePublish, 0},
		[2]any{trace.StageDeliver, 30},
		[2]any{trace.StageOperator, 40},
		[2]any{trace.StageResult, 50},
	)
	bd, ok := Decompose(s, 3)
	if !ok {
		t.Fatal("Decompose rejected a chain with missing stages")
	}
	if bd.Stage[StageDissemination] != 0 {
		t.Errorf("dissemination = %g, want 0 (no relay hop)", bd.Stage[StageDissemination])
	}
	if math.Abs(bd.Stage[StageNetwork]-0.030) > 1e-9 {
		t.Errorf("network = %g, want 0.030 (absorbs publish→deliver)", bd.Stage[StageNetwork])
	}
	if bd.Stage[StageIngest] != 0 {
		t.Errorf("ingest = %g, want 0 (no delegate hop)", bd.Stage[StageIngest])
	}
	assertTelescoping(t, bd)
}

// TestDecomposeOutOfOrderAnchors: hops are stamped before they are
// appended, so another query's operator hop can sit before this result
// in the list with a later time (and a delegate hop with an earlier one
// than the deliver hop before it). No stage may go negative and the
// stages must still sum to E2E exactly.
func TestDecomposeOutOfOrderAnchors(t *testing.T) {
	s := mkSpan(
		[2]any{trace.StagePublish, 0},
		[2]any{trace.StageRelay, 5},
		[2]any{trace.StageDeliver, 12},
		[2]any{trace.StageDelegate, 10}, // stamped before the deliver hop
		[2]any{trace.StageOperator, 20}, // q1's fragment
		[2]any{trace.StageOperator, 47}, // q2's fragment, stamped after q1's result
		[2]any{trace.StageResult, 40},   // q1
	)
	bd, ok := Decompose(s, 6)
	if !ok {
		t.Fatal("Decompose rejected the chain")
	}
	for st, v := range bd.Stage {
		if v < 0 {
			t.Errorf("%s = %g, negative", st, v)
		}
	}
	if math.Abs(bd.E2E-0.040) > 1e-9 {
		t.Errorf("e2e = %g, want 0.040", bd.E2E)
	}
	assertTelescoping(t, bd)
}

func TestDecomposeRejects(t *testing.T) {
	s := mkSpan([2]any{trace.StagePublish, 0}, [2]any{trace.StageRelay, 5})
	if _, ok := Decompose(s, 1); ok {
		t.Fatal("accepted a non-result terminal hop")
	}
	if _, ok := Decompose(s, -1); ok {
		t.Fatal("accepted hop -1")
	}
	if _, ok := Decompose(s, 99); ok {
		t.Fatal("accepted out-of-range hop")
	}
}

func assertTelescoping(t *testing.T, bd Breakdown) {
	t.Helper()
	var sum float64
	for _, v := range bd.Stage {
		sum += v
	}
	if math.Abs(sum-bd.E2E) > 1e-9 {
		t.Fatalf("stage deltas sum to %g, e2e is %g — telescoping broken", sum, bd.E2E)
	}
}

func TestRecorderMeasuredPR(t *testing.T) {
	r := NewRecorder()
	s := mkSpan(
		[2]any{trace.StagePublish, 0},
		[2]any{trace.StageRelay, 10},
		[2]any{trace.StageDeliver, 20},
		[2]any{trace.StageDelegate, 25},
		[2]any{trace.StageOperator, 30},
		[2]any{trace.StageResult, 50},
	)
	s.Hops[5].Node = "q7"
	for i := 0; i < 10; i++ {
		r.OnComplete(s, 5)
	}
	// e2e 50ms, eval 20ms → PR 2.5.
	if pr := r.PRMeasured("q7"); math.Abs(pr-2.5) > 1e-6 {
		t.Fatalf("PRMeasured = %g, want 2.5", pr)
	}
	a := r.Snapshot()
	if len(a.Queries) != 1 || a.Queries[0].Query != "q7" {
		t.Fatalf("queries: %+v", a.Queries)
	}
	if a.E2E.Count != 10 || a.Stages[StageEval].Count != 10 {
		t.Fatalf("histograms not fed: e2e=%d eval=%d", a.E2E.Count, a.Stages[StageEval].Count)
	}
	// The per-query waterfall telescopes to the query's mean e2e.
	var wsum float64
	for _, sec := range a.Queries[0].Stages {
		wsum += sec
	}
	if math.Abs(wsum-a.Queries[0].E2E.Mean()) > 1e-9 {
		t.Fatalf("waterfall sums to %g, e2e mean %g", wsum, a.Queries[0].E2E.Mean())
	}
	if math.Abs(a.Queries[0].Stages[StageEval]-0.020) > 1e-9 {
		t.Fatalf("waterfall eval segment = %g, want 0.020", a.Queries[0].Stages[StageEval])
	}
	if r.Completed.Value() != 10 {
		t.Fatalf("Completed = %d", r.Completed.Value())
	}

	// Eviction finalizations and portal re-announcements don't distort.
	r.OnComplete(s, -1)
	portal := s
	portal.Hops = append(portal.Hops, trace.Hop{Stage: trace.StagePortal, Node: "p", At: s.Hops[5].At})
	r.OnComplete(portal, 6)
	if r.Incomplete.Value() != 1 {
		t.Fatalf("Incomplete = %d, want 1", r.Incomplete.Value())
	}
	if got := r.Snapshot().E2E.Count; got != 10 {
		t.Fatalf("portal/eviction polluted e2e: count %d, want 10", got)
	}
}

func TestAttributionMerge(t *testing.T) {
	mk := func(e2eMS, evalMS float64, q string, n int) Attribution {
		r := NewRecorder()
		for i := 0; i < n; i++ {
			r.Observe(Breakdown{Query: q, E2E: e2eMS / 1e3, Stage: map[string]float64{
				StageNetwork: (e2eMS - evalMS) / 1e3,
				StageEval:    evalMS / 1e3,
			}})
		}
		return r.Snapshot()
	}
	a := mk(100, 20, "q1", 5)
	a.Merge(mk(200, 40, "q1", 5))
	a.Merge(mk(50, 10, "q2", 3))
	if a.E2E.Count != 13 {
		t.Fatalf("merged e2e count = %d, want 13", a.E2E.Count)
	}
	if len(a.Queries) != 2 {
		t.Fatalf("merged queries: %+v", a.Queries)
	}
	q1 := a.Queries[0]
	if q1.Query != "q1" || q1.E2E.Count != 10 {
		t.Fatalf("q1 row: %+v", q1)
	}
	// Count-weighted eval mean (20+40)/2 = 30ms; e2e mean 150ms → PR 5.
	if math.Abs(q1.EvalMean-0.030) > 1e-6 || math.Abs(q1.PRMeasured-5) > 0.01 {
		t.Fatalf("q1 merged PR: eval=%g pr=%g", q1.EvalMean, q1.PRMeasured)
	}
	// Waterfall recombines count-weighted too: network (80+160)/2 =
	// 120ms, eval 30ms — still telescoping to the 150ms merged mean.
	if math.Abs(q1.Stages[StageNetwork]-0.120) > 1e-9 || math.Abs(q1.Stages[StageEval]-0.030) > 1e-9 {
		t.Fatalf("q1 merged waterfall: %+v", q1.Stages)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules([]string{
		"p99_end_to_end < 250ms",
		"drop_rate < 1%",
		"stage_share(network) < 60%",
		"",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	if r := rules[0]; r.Kind != RuleQuantileE2E || r.Q != 0.99 || r.Bound != 0.25 {
		t.Fatalf("rule 0: %+v", r)
	}
	if r := rules[1]; r.Kind != RuleDropRate || math.Abs(r.Bound-0.01) > 1e-12 {
		t.Fatalf("rule 1: %+v", r)
	}
	if r := rules[2]; r.Kind != RuleStageShare || r.Stage != "network" || math.Abs(r.Bound-0.6) > 1e-12 {
		t.Fatalf("rule 2: %+v", r)
	}
	for _, bad := range []string{
		"p99_end_to_end 250ms",     // no operator
		"p0_end_to_end < 1s",       // quantile out of range
		"stage_share(bogus) < 10%", // unknown stage
		"vibes < 9000",             // unknown metric
		"pr_max < 3",               // not windowed, so not a rule
		"p50_end_to_end < -1s",     // non-positive bound
		"p50_end_to_end < banana",  // unparseable bound
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
	if _, err := ParseRules([]string{"drop_rate < 1%", "drop_rate < 1%"}); err == nil {
		t.Error("duplicate rules accepted")
	}
}

func TestWatchdogBreachAndClear(t *testing.T) {
	rules, err := ParseRules([]string{"p99_end_to_end < 250ms", "drop_rate < 1%"})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatchdog(rules)

	var h Hist
	obs := func(dropRate float64) Observation {
		return Observation{E2E: h.Snapshot(), DropRate: dropRate, EngineWindow: true}
	}
	feed := func(sec float64, n int) {
		for i := 0; i < n; i++ {
			h.Observe(sec)
		}
	}

	// Tick 1: healthy traffic.
	feed(0.010, 100)
	v := w.Eval(obs(0.001))
	if v[0].Breached || v[1].Breached {
		t.Fatalf("healthy tick breached: %+v", v)
	}
	if v[0].Transition || v[1].Transition {
		t.Fatalf("healthy tick transitioned: %+v", v)
	}

	// Tick 2: slow window + heavy drops → both breach with a transition edge.
	feed(0.5, 100)
	v = w.Eval(obs(0.2))
	if !v[0].Breached || !v[0].Transition {
		t.Fatalf("p99 rule did not breach on slow window: %+v", v[0])
	}
	if !v[1].Breached || !v[1].Transition {
		t.Fatalf("drop_rate rule did not breach: %+v", v[1])
	}

	// Tick 3: still bad — breached holds, but no new transition.
	feed(0.5, 100)
	v = w.Eval(obs(0.2))
	if !v[0].Breached || v[0].Transition {
		t.Fatalf("sustained breach must not re-transition: %+v", v[0])
	}

	// Tick 4: traffic recovers → clear transition despite the cumulative
	// histogram still holding every slow sample (windowing at work).
	feed(0.010, 500)
	v = w.Eval(obs(0))
	if v[0].Breached || !v[0].Transition {
		t.Fatalf("p99 rule did not clear on healthy window: %+v", v[0])
	}
	if v[1].Breached || !v[1].Transition {
		t.Fatalf("drop_rate rule did not clear: %+v", v[1])
	}

	// Tick 5: idle window → state held, not evaluated, no transition.
	v = w.Eval(Observation{E2E: h.Snapshot()})
	for _, vv := range v {
		if vv.Evaluated || vv.Transition || vv.Breached {
			t.Fatalf("idle window verdict: %+v", vv)
		}
	}
}

func TestWatchdogStageShare(t *testing.T) {
	rules, err := ParseRules([]string{"stage_share(network) < 60%"})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatchdog(rules)
	var net, eval Hist
	obs := func() Observation {
		return Observation{Stages: map[string]HistSnapshot{
			StageNetwork: net.Snapshot(),
			StageEval:    eval.Snapshot(),
		}}
	}
	// Window 1: network 10ms vs eval 90ms → 10% share, fine.
	net.Observe(0.010)
	eval.Observe(0.090)
	if v := w.Eval(obs()); v[0].Breached {
		t.Fatalf("10%% share breached: %+v", v[0])
	}
	// Window 2: network dominates → breach.
	net.Observe(0.900)
	eval.Observe(0.100)
	v := w.Eval(obs())
	if !v[0].Breached || !v[0].Transition {
		t.Fatalf("90%% share did not breach: %+v", v[0])
	}
	if math.Abs(v[0].Value-0.9) > 1e-9 {
		t.Fatalf("share value = %g, want 0.9", v[0].Value)
	}
}

// PRMeasured returns one query's measured performance ratio (0 when the
// query is unknown or has no evaluation time on record).
func (r *Recorder) PRMeasured(query string) float64 {
	r.mu.Lock()
	ql := r.queries[query]
	r.mu.Unlock()
	if ql == nil {
		return 0
	}
	return prOf(ql)
}
