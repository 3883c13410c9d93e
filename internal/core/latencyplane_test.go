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

	// The plane needs the tracer's completion hook.
	if err := fed.EnableLatencyAttribution(); err == nil {
		t.Fatal("EnableLatencyAttribution without tracing accepted")
	}
	tr, err := fed.EnableTracing(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)
	if err := fed.EnableLatencyAttribution(); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableLatencyAttribution(); err == nil {
		t.Fatal("double enable accepted")
	}
	if !fed.LatencyEnabled() {
		t.Fatal("LatencyEnabled = false after enable")
	}
	if err := fed.EnableLatencyAttribution("nonsense rule"); err == nil {
		t.Fatal("bad rule accepted")
	}

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

	// The default watchdog ran during the stats ticks.
	if vs := fed.SLOStatus(); len(vs) != len(DefaultSLORules) {
		t.Fatalf("SLOStatus has %d verdicts, want %d", len(vs), len(DefaultSLORules))
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

// TestLatencyChaosJitterDriftAndSLO is the fault-injection acceptance
// test: an induced network-delay fault makes the measured PR diverge
// from the engine-estimated PR (the engine clock starts at its own
// queue, so link jitter is invisible to it), breaches the end-to-end
// SLO with a slo.breach journal event, and — once the fault lifts —
// the windowed watchdog emits the matching slo.clear.
func TestLatencyChaosJitterDriftAndSLO(t *testing.T) {
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), 17)
	t.Cleanup(func() { plan.Close() })
	fed := startFederation(t, plan, Options{Strategy: dissemination.Balanced, Fanout: 2}, 2, 2, fullFactory)
	if _, err := fed.EnableTracing(1, 4096); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)
	rule := "p99_end_to_end < 30ms"
	if err := fed.EnableLatencyAttribution(rule); err != nil {
		t.Fatal(err)
	}
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

	// Phase 1 — healthy baseline.
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

	// Phase 2 — 60-100ms of uniform link jitter: network delay the
	// engine's own delay clock never sees.
	plan.SetDefaultFaults(simnet.LinkFaults{Jitter: 80 * time.Millisecond})
	plan.SetEnabled(true)
	publish(30)
	att = waitLatencyCount(t, fed, healthyCount+60)
	plan.SetEnabled(false)

	jitterPR, prQuery := fed.PRMeasuredMax()
	estPR, okEst := fed.QueryPR(prQuery)
	if !okEst {
		t.Fatalf("no estimated PR for %s (engine metrics missing)", prQuery)
	}
	// The measured ratio must diverge hard from the estimate: jitter
	// lands in the span but not in the engine's queue-to-result clock.
	if jitterPR < estPR*3 {
		t.Fatalf("measured PR %.3g did not diverge from estimated %.3g under jitter", jitterPR, estPR)
	}
	if jitterPR < healthyPR*2 {
		t.Fatalf("measured PR %.3g barely moved from healthy %.3g under 80ms jitter", jitterPR, healthyPR)
	}

	breaches := fed.Journal().Since(0, "slo.breach")
	if len(breaches) == 0 {
		t.Fatalf("no slo.breach journal event; status %+v", fed.SLOStatus())
	}
	if breaches[0].Fields["rule"] != rule {
		t.Fatalf("breach event names rule %q, want %q", breaches[0].Fields["rule"], rule)
	}

	// Phase 3 — fault lifted: a healthy window clears the breach even
	// though the cumulative histogram still holds every slow sample.
	deadline := time.Now().Add(10 * time.Second)
	for {
		publish(40)
		settleTicks(fed, 2)
		if clears := fed.Journal().Since(0, "slo.clear"); len(clears) > 0 {
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
	if !strings.Contains(sb.String(), `sspd_slo_breaches_total{rule="`+rule+`"}`) {
		t.Error("exposition missing sspd_slo_breaches_total for the breached rule")
	}
	if !strings.Contains(sb.String(), "sspd_pr_drift{query=") {
		t.Error("exposition missing sspd_pr_drift")
	}
}
