package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/latency"
	"sspd/internal/metrics"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// fullFactory builds the production engine, whose measured d_k/p_k back
// the *estimated* PR the drift gauge compares against.
func fullFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.New(name, c)
}

// PRMeasuredMax returns the worst measured performance ratio across the
// cluster view and the query achieving it.
func (f *Federation) PRMeasuredMax() (pr float64, query string) {
	att, ok := f.ClusterLatency()
	if !ok {
		return 0, ""
	}
	for _, q := range att.Queries {
		if q.PRMeasured > pr {
			pr, query = q.PRMeasured, q.Query
		}
	}
	return pr, query
}

// waitLatencyCount re-federates until the cluster view covers at least
// `want` completed spans (full engines finish results asynchronously).
func waitLatencyCount(t *testing.T, fed *Federation, want uint64) latency.Attribution {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		settleTicks(fed, 1)
		att, ok := fed.ClusterLatency()
		if ok && att.E2E.Count >= want {
			return att
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster latency count stuck at %d, want >= %d", att.E2E.Count, want)
		}
	}
}

// TestLatencyAttributionFederation is the tentpole integration test:
// spans complete into per-entity stage histograms, ride the stats
// federation's rows, and the root's merged view answers cluster-wide
// percentiles, measured PR, and real Prometheus histogram families. The
// federated P99 lands within one log-bucket of the exact P99 of the
// sampled spans, on either engine.
func TestLatencyAttributionFederation(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) { latencyAttributionFederation(t, eng.factory) })
	}
}

func latencyAttributionFederation(t *testing.T, factory entity.EngineFactory) {
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed := startFederation(t, net, Options{Strategy: dissemination.Balanced, Fanout: 2}, 3, 2, factory)

	tr, err := fed.EnableTracing(1)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)

	for i := 0; i < 3; i++ {
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("q%d", i), 0, 1000),
			fmt.Sprintf("e%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(3, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(20)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// 20 tuples × 3 matching queries, every tuple sampled.
	att := waitLatencyCount(t, fed, 60)
	if att.E2E.Count != 60 {
		t.Fatalf("cluster e2e count = %d, want 60", att.E2E.Count)
	}

	// The acceptance criterion: per-span stage deltas telescope, so the
	// summed stage histograms account for the summed end-to-end delay
	// exactly (same clock reads, only float addition error).
	var stageSum float64
	for _, st := range latency.Stages {
		s := att.Stages[st]
		if s.Count != 60 {
			t.Errorf("stage %s count = %d, want 60", st, s.Count)
		}
		stageSum += s.Sum
	}
	if math.Abs(stageSum-att.E2E.Sum) > 1e-6*att.E2E.Sum+1e-9 {
		t.Fatalf("stage sums %.9g != e2e sum %.9g — attribution leaks time", stageSum, att.E2E.Sum)
	}

	// The federated rows actually carried the histograms.
	rows, _, ok := fed.ClusterStats()
	if !ok {
		t.Fatal("no root digest")
	}
	withLatency := 0
	for id, row := range rows {
		if row.Latency == nil {
			continue
		}
		withLatency++
		if row.Latency.E2E.Count != 20 {
			t.Errorf("%s: row e2e count = %d, want 20", id, row.Latency.E2E.Count)
		}
	}
	if withLatency != 3 {
		t.Fatalf("%d rows carry latency, want 3", withLatency)
	}

	// Per-query measured PR present for every query.
	if len(att.Queries) != 3 {
		t.Fatalf("cluster view has %d query rows, want 3: %+v", len(att.Queries), att.Queries)
	}
	for _, q := range att.Queries {
		if q.PRMeasured <= 0 || q.EvalMean <= 0 {
			t.Errorf("%s: PRMeasured=%g EvalMean=%g, want > 0", q.Query, q.PRMeasured, q.EvalMean)
		}
	}
	if pr, q := fed.PRMeasuredMax(); pr <= 0 || q == "" {
		t.Fatalf("PRMeasuredMax = %g/%q", pr, q)
	}

	// Merge accuracy: decompose every buffered span as the plane did, but
	// keep the raw delays. The federated P99, answered by per-entity
	// log-bucket histograms merged through the stats rows, must land
	// within one bucket of the exact P99 of those delays.
	var exact []float64
	for _, s := range tr.Recent(tr.Len()) {
		for i, h := range s.Hops {
			if h.Stage != trace.StageResult {
				continue
			}
			if bd, ok := latency.Decompose(s, i); ok {
				exact = append(exact, bd.E2E)
			}
		}
	}
	if uint64(len(exact)) != att.E2E.Count {
		t.Fatalf("the spans hold %d delays, the federated view %d", len(exact), att.E2E.Count)
	}
	sort.Float64s(exact)
	oracleP99 := exact[max(0, min(len(exact)-1, int(0.99*float64(len(exact))+0.5)-1))]
	fedP99 := att.E2E.Quantile(0.99)
	bucketOf := func(v float64) int {
		i, _ := slices.BinarySearch(latency.Bounds(), v)
		return i
	}
	if d := bucketOf(fedP99) - bucketOf(oracleP99); d < -1 || d > 1 {
		t.Fatalf("federated P99 %.3gs is %d log-buckets from the exact P99 %.3gs (bar: 1)", fedP99, d, oracleP99)
	}

	// The shipped watchdog ran during the stats ticks.
	if vs := fed.SLOStatus(); len(vs) != len(sloRules) {
		t.Fatalf("SLOStatus has %d verdicts, want %d", len(vs), len(sloRules))
	}

	// Exposition: real histogram families that survive the strict parser.
	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE sspd_latency_e2e_seconds histogram",
		`sspd_latency_e2e_seconds_count 60`,
		`sspd_latency_stage_seconds_bucket{stage="network",le="+Inf"} 60`,
		`sspd_pr_measured{query="q0"}`,
		`sspd_slo_breached{rule="p99_end_to_end < 250ms"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if _, err := metrics.ParsePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("strict parser rejected exposition: %v", err)
	}
}

// TestSpanAttributionEitherEnableOrder: sampled spans are attributed
// once tracing and the stats plane are both on, whichever came first.
func TestSpanAttributionEitherEnableOrder(t *testing.T) {
	for _, statsFirst := range []bool{false, true} {
		name := "tracing_first"
		if statsFirst {
			name = "stats_first"
		}
		t.Run(name, func(t *testing.T) {
			net := simnet.NewSim(nil)
			t.Cleanup(func() { net.Close() })
			fed := startFederation(t, net, Options{Fanout: 2}, 2, 1, miniFactory)
			defer trace.SetActive(nil)
			enable := []func() error{
				func() error { _, err := fed.EnableTracing(1); return err },
				func() error { return fed.EnableStatsPlane(0) },
			}
			if statsFirst {
				enable[0], enable[1] = enable[1], enable[0]
			}
			if err := enable[0](); err != nil {
				t.Fatal(err)
			}
			if _, ok := fed.ClusterLatency(); ok {
				t.Fatal("attribution reported on with only one of tracing and the stats plane")
			}
			if err := enable[1](); err != nil {
				t.Fatal(err)
			}
			if err := fed.SubmitQueryTo(priceQuery("q", 0, 1000), "e01", nil); err != nil {
				t.Fatal(err)
			}
			fed.Settle(2 * time.Second)
			if err := fed.Publish("quotes", workload.NewTicker(5, 100, 1.2).Batch(10)); err != nil {
				t.Fatal(err)
			}
			fed.Settle(2 * time.Second)
			if att := waitLatencyCount(t, fed, 10); att.E2E.Count != 10 || len(att.Queries) != 1 {
				t.Fatalf("attributed %d spans over %d queries, want 10 over 1", att.E2E.Count, len(att.Queries))
			}
		})
	}
}

// TestLatencyChaosJitterDriftAndSLO is the fault-injection acceptance
// test, on both engines and under the shipped rules. A healthy
// federation breaches no SLO rule and saturates no engine. An induced
// network-delay fault then breaches the end-to-end tail rule with a
// slo.breach journal event and, on the shard engine, makes the measured
// PR diverge from the engine-estimated PR (the engine clock starts at its
// own queue, so link jitter is invisible to it; the oracle measures no
// PR). Once the fault lifts, the windowed watchdog emits the matching
// slo.clear. The tail rule, not the network-share one, is the one a link
// fault trips: a span's relay hop is stamped on arrival, so link transit
// lands in the dissemination stage.
func TestLatencyChaosJitterDriftAndSLO(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) { latencyChaosJitterDriftAndSLO(t, eng.factory, eng.name == "shard") })
	}
}

func latencyChaosJitterDriftAndSLO(t *testing.T, factory entity.EngineFactory, measuresPR bool) {
	const rule = "p99_end_to_end < 250ms"
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), 17)
	t.Cleanup(func() { plan.Close() })
	fed := startFederation(t, plan, Options{Strategy: dissemination.Balanced, Fanout: 2}, 2, 2, factory)
	if _, err := fed.EnableTracing(1); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)
	for i := 0; i < 2; i++ {
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("q%d", i), 0, 1000),
			fmt.Sprintf("e%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(2, 100, 1.2)
	publish := func(n int) {
		t.Helper()
		if err := fed.Publish("quotes", tick.Batch(n)); err != nil {
			t.Fatal(err)
		}
		if !plan.Quiesce(5 * time.Second) {
			t.Fatal("quiesce")
		}
	}
	ruleEvents := func(kind string) []obslog.Event {
		var out []obslog.Event
		for _, e := range fed.Journal().Since(0, kind) {
			if e.Fields["rule"] == rule {
				out = append(out, e)
			}
		}
		return out
	}

	// Phase 1 — healthy baseline: no shipped rule breached.
	publish(30)
	att := waitLatencyCount(t, fed, 60)
	healthyPR, _ := fed.PRMeasuredMax()
	if healthyPR <= 0 {
		t.Fatal("no measured PR after healthy traffic")
	}
	healthyCount := att.E2E.Count
	for _, v := range fed.SLOStatus() {
		if v.Breached {
			t.Fatalf("breached during healthy phase: %+v (p99=%gs)", v, att.E2E.Quantile(0.99))
		}
	}
	for _, kind := range []string{"slo.breach", "engine.saturated"} {
		if evs := fed.Journal().Since(0, kind); len(evs) > 0 {
			t.Fatalf("healthy phase journaled %s: %+v", kind, evs)
		}
	}

	// Phase 2 — up to 400ms of uniform link jitter, so the window's p99
	// lands near 400ms: network delay the engine's own delay clock never
	// sees.
	plan.SetDefaultFaults(simnet.LinkFaults{Jitter: 400 * time.Millisecond})
	plan.SetEnabled(true)
	publish(30)
	waitLatencyCount(t, fed, healthyCount+60)
	plan.SetEnabled(false)

	jitterPR, prQuery := fed.PRMeasuredMax()
	if jitterPR < healthyPR*2 {
		t.Fatalf("measured PR %.3g barely moved from healthy %.3g under link jitter", jitterPR, healthyPR)
	}
	if measuresPR {
		estPR, okEst := fed.QueryPR(prQuery)
		if !okEst {
			t.Fatalf("no estimated PR for %s (engine metrics missing)", prQuery)
		}
		// The measured ratio must diverge hard from the estimate: jitter
		// lands in the span but not in the engine's queue-to-result clock.
		if jitterPR < estPR*3 {
			t.Fatalf("measured PR %.3g did not diverge from estimated %.3g under jitter", jitterPR, estPR)
		}
	}

	breaches := ruleEvents("slo.breach")
	if len(breaches) == 0 {
		t.Fatalf("no slo.breach journal event for %q; status %+v", rule, fed.SLOStatus())
	}

	// Phase 3 — fault lifted: a healthy window clears the breach even
	// though the cumulative histogram still holds every slow sample.
	deadline := time.Now().Add(10 * time.Second)
	for {
		publish(40)
		settleTicks(fed, 2)
		if clears := ruleEvents("slo.clear"); len(clears) > 0 {
			if clears[0].Seq <= breaches[0].Seq {
				t.Fatalf("slo.clear seq %d precedes slo.breach seq %d", clears[0].Seq, breaches[0].Seq)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slo.clear after fault lifted; status %+v", fed.SLOStatus())
		}
	}

	// The breach counter survives in the exposition.
	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `sspd_slo_breaches_total{rule="`+rule+`"} 1`) {
		t.Error("exposition missing sspd_slo_breaches_total for the breached rule")
	}
	if measuresPR && !strings.Contains(sb.String(), "sspd_pr_drift{query=") {
		t.Error("exposition missing sspd_pr_drift")
	}
}
