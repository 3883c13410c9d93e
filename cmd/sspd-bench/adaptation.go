package main

import (
	"fmt"
	"time"

	"sspd/internal/core"
	"sspd/internal/engine"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// adaptationReport is BENCH_adaptation.json: tuple-routed downstream
// selection (the Adaptation Module, paper §4.2 / DESIGN.md §15) vs. the
// static-ordering baseline under a selectivity-drifting workload on a
// jittered link.
//
// Topology: one entity, four processors, a three-fragment filter chain.
// Placement puts the head on p0 and the static middle fragment on p1;
// the p0→p1 link carries uniform jitter, so every tuple surviving the
// head filter pays it. Tuple routing replicates the middle fragment on
// p1 AND p2 — the chooser measures both (through trace-fed delays) and
// steers traffic over the clean p0→p2 link. The workload drifts the
// head filter's selectivity from ~10% pass to ~90% pass between phases,
// multiplying traffic over the slow link: the static chain degrades
// with the drift, the routed one adapts around it.
type adaptationReport struct {
	// TuplesPerPhase / phases of the drifting workload.
	TuplesPerPhase int     `json:"tuples_per_phase"`
	JitterMs       float64 `json:"jitter_ms"`

	// PR_max (measured, from trace spans) at the end of each run.
	StaticAPRMax float64 `json:"static_a_pr_max"`
	StaticBPRMax float64 `json:"static_b_pr_max"`
	RoutedPRMax  float64 `json:"routed_pr_max"`

	// Mean end-to-end delay per sampled span (seconds) at the end.
	StaticAMeanDelay float64 `json:"static_a_mean_delay_seconds"`
	RoutedMeanDelay  float64 `json:"routed_mean_delay_seconds"`

	// Per-phase sampled delay burden (sum of span delays, seconds) for
	// the first static run: the drift multiplies traffic over the
	// jittered link, so phase 2's burden must dwarf phase 1's.
	StaticPhase1Burden float64 `json:"static_phase1_burden_seconds"`
	StaticPhase2Burden float64 `json:"static_phase2_burden_seconds"`

	// Improvement is staticA PR_max over routed PR_max; Margin is the
	// noise-calibrated bar it must clear (from the static A/B spread).
	Improvement float64 `json:"improvement"`
	Margin      float64 `json:"margin"`

	// Delivered result counts (all runs must match the oracle exactly —
	// routing must never lose or duplicate a tuple).
	OracleResults  int `json:"oracle_results"`
	StaticAResults int `json:"static_a_results"`
	StaticBResults int `json:"static_b_results"`
	RoutedResults  int `json:"routed_results"`

	// Routed-run routing table at the end: candidate delays prove the
	// chooser measured the slow replica and preferred the clean one.
	Routes []core.RouteStatus `json:"routes"`
}

const (
	adaptTuplesPerPhase = 2000
	adaptChunk          = 200
	adaptJitter         = 8 * time.Millisecond
	// adaptMinMargin is the floor on the PR improvement bar; the
	// effective bar grows with the measured static A/B noise spread.
	adaptMinMargin = 1.3
)

// adaptPrice returns the drifting price for tuple i of a phase: phase 1
// passes the head filter (price <= 100) for exactly 10% of tuples,
// phase 2 for 90% — the selectivity drift that multiplies traffic over
// the jittered inter-fragment link. The passing slot rotates through
// every residue mod 4 so the tracer's 1-in-4 tick sampler sees passing
// tuples in both phases.
func adaptPrice(phase, i int) float64 {
	pass := i%10 == (i/10)%4
	if phase == 2 {
		pass = !pass
	}
	if pass {
		return 50
	}
	return 500
}

// adaptSpec is the three-fragment chain: a drifting head filter and two
// pass-all stages behind it (the routed boundary sits between the first
// and second fragment).
func adaptSpec() engine.QuerySpec {
	return engine.QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 100, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 1e6, Cost: 1},
			{KeyField: "symbol", Keys: []string{"S0000"}, Cost: 1},
		},
		Load: 5,
	}
}

type adaptRun struct {
	prMax        float64
	meanDelay    float64
	phase1Burden float64
	phase2Burden float64
	results      int
	routes       []core.RouteStatus
}

// runAdaptationOnce drives one full drifting workload through a fresh
// federation and returns its measurements. seed varies the jitter RNG
// between runs (the noise-calibration repeats).
func runAdaptationOnce(routed bool, seed int64) (adaptRun, error) {
	var out adaptRun
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), seed)
	defer plan.Close()
	opts := core.Options{
		Fanout:            2,
		FragmentsPerQuery: 3,
		Logger:            obslog.New(obslog.NewJournal(obslog.DefaultJournalCapacity), nil),
	}
	if routed {
		opts.EnableTupleRouting = true
		opts.RoutingReplicas = 2
	}
	fed, err := core.New(plan, workload.Catalog(100, 20), opts)
	if err != nil {
		return out, err
	}
	defer fed.Close()
	defer trace.SetActive(nil)
	if err := fed.AddSource("quotes", simnet.Point{},
		core.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		return out, err
	}
	mini := func(name string, c *stream.Catalog) engine.Processor {
		return engine.NewMini(name, c)
	}
	if err := fed.AddEntity("e", simnet.Point{X: 10}, 4, mini); err != nil {
		return out, err
	}
	if err := fed.Start(); err != nil {
		return out, err
	}
	if _, err := fed.EnableTracing(4, 8192); err != nil {
		return out, err
	}
	if err := fed.EnableLatencyAttribution(); err != nil {
		return out, err
	}
	results := 0
	if err := fed.SubmitQueryTo(adaptSpec(), "e", func(stream.Tuple) { results++ }); err != nil {
		return out, err
	}
	fed.Settle(2 * time.Second)

	// Jitter the head→middle link the static chain is pinned to
	// (placement deals fragments across processors in index order, so
	// the head lands on p0 and the static middle instance on p1; the
	// routed run's second replica lands on p2, behind a clean link).
	plan.SetLinkFaults("e/p0", "e/p1", simnet.LinkFaults{Jitter: adaptJitter})

	seq := uint64(0)
	feedPhase := func(phase int) error {
		for sent := 0; sent < adaptTuplesPerPhase; sent += adaptChunk {
			batch := make(stream.Batch, 0, adaptChunk)
			for i := 0; i < adaptChunk; i++ {
				batch = append(batch, stream.NewTuple("quotes", seq,
					time.Unix(int64(seq), 0).UTC(),
					stream.String("S0000"),
					stream.Float(adaptPrice(phase, sent+i)),
					stream.Int(1)))
				seq++
			}
			if err := fed.Publish("quotes", batch); err != nil {
				return err
			}
			// Pace in chunks so the trace→Report feedback loop closes
			// between routing decisions.
			if !plan.Quiesce(10 * time.Second) {
				return fmt.Errorf("phase %d did not quiesce", phase)
			}
		}
		return nil
	}

	burden := func() float64 {
		att, ok := fed.ClusterLatency()
		if !ok {
			return 0
		}
		return att.E2E.Sum
	}

	if err := feedPhase(1); err != nil {
		return out, err
	}
	out.phase1Burden = burden()
	if err := feedPhase(2); err != nil {
		return out, err
	}
	total := burden()
	out.phase2Burden = total - out.phase1Burden

	att, ok := fed.ClusterLatency()
	if !ok || att.E2E.Count == 0 {
		return out, fmt.Errorf("no latency view after workload")
	}
	out.meanDelay = att.E2E.Sum / float64(att.E2E.Count)
	out.prMax, _ = fed.PRMeasuredMax()
	out.results = results
	out.routes = fed.AdaptationRoutes()
	return out, nil
}

func runAdaptationBench(path string) error {
	rep := adaptationReport{
		TuplesPerPhase: adaptTuplesPerPhase,
		JitterMs:       float64(adaptJitter) / float64(time.Millisecond),
	}
	// The oracle: tuples passing the drifting head filter (the other
	// two stages pass everything).
	for _, phase := range []int{1, 2} {
		for i := 0; i < adaptTuplesPerPhase; i++ {
			if adaptPrice(phase, i) <= 100 {
				rep.OracleResults++
			}
		}
	}

	staticA, err := runAdaptationOnce(false, 11)
	if err != nil {
		return err
	}
	staticB, err := runAdaptationOnce(false, 23)
	if err != nil {
		return err
	}
	routed, err := runAdaptationOnce(true, 11)
	if err != nil {
		return err
	}

	rep.StaticAPRMax = staticA.prMax
	rep.StaticBPRMax = staticB.prMax
	rep.RoutedPRMax = routed.prMax
	rep.StaticAMeanDelay = staticA.meanDelay
	rep.RoutedMeanDelay = routed.meanDelay
	rep.StaticPhase1Burden = staticA.phase1Burden
	rep.StaticPhase2Burden = staticA.phase2Burden
	rep.StaticAResults = staticA.results
	rep.StaticBResults = staticB.results
	rep.RoutedResults = routed.results
	rep.Routes = routed.routes

	// Noise calibration: the margin routing must clear grows with the
	// spread between the two identical static runs.
	noise := staticA.prMax - staticB.prMax
	if noise < 0 {
		noise = -noise
	}
	rel := 0.0
	if m := max64(staticA.prMax, staticB.prMax); m > 0 {
		rel = noise / m
	}
	rep.Margin = adaptMinMargin
	if bar := 1 + 3*rel; bar > rep.Margin {
		rep.Margin = bar
	}
	if routed.prMax > 0 {
		rep.Improvement = staticA.prMax / routed.prMax
	}

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("adaptation bench: PR_max static=%.3g/%.3g routed=%.3g (%.2fx, bar %.2fx) mean delay static=%.3gs routed=%.3gs\n",
		rep.StaticAPRMax, rep.StaticBPRMax, rep.RoutedPRMax, rep.Improvement, rep.Margin,
		rep.StaticAMeanDelay, rep.RoutedMeanDelay)
	fmt.Printf("  drift burden: phase1=%.3gs phase2=%.3gs; results oracle=%d static=%d/%d routed=%d\n",
		rep.StaticPhase1Burden, rep.StaticPhase2Burden,
		rep.OracleResults, rep.StaticAResults, rep.StaticBResults, rep.RoutedResults)
	fmt.Printf("  wrote %s\n", path)

	// Gate 1 — zero loss, exact results, every run.
	for name, got := range map[string]int{
		"static A": rep.StaticAResults, "static B": rep.StaticBResults, "routed": rep.RoutedResults,
	} {
		if got != rep.OracleResults {
			return fmt.Errorf("%s delivered %d results, oracle %d — routing/baseline lost or duplicated tuples",
				name, got, rep.OracleResults)
		}
	}
	// Gate 2 — the drift actually degrades the static chain (else the
	// scenario proves nothing).
	if rep.StaticPhase2Burden < 3*rep.StaticPhase1Burden {
		return fmt.Errorf("selectivity drift did not degrade the static chain (phase2 burden %.3gs < 3x phase1 %.3gs)",
			rep.StaticPhase2Burden, rep.StaticPhase1Burden)
	}
	// Gate 3 — routed PR_max beats static by the noise-calibrated bar.
	if rep.Improvement < rep.Margin {
		return fmt.Errorf("tuple routing improved PR_max only %.2fx over static (bar: %.2fx)",
			rep.Improvement, rep.Margin)
	}
	return nil
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
