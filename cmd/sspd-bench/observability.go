package main

import (
	"fmt"
	"time"

	"sspd/internal/core"
	"sspd/internal/dissemination"
	"sspd/internal/simnet"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// observabilityReport is the schema of BENCH_observability.json: the
// measured cost of the observability layer on the tuple hot path,
// with tracing disabled (the production default), sampling 1 in 1024,
// and tracing every tuple.
type observabilityReport struct {
	Tuples   int `json:"tuples"`
	Entities int `json:"entities"`
	Queries  int `json:"queries"`

	// NsPerTupleOff is the end-to-end publish->result cost per tuple
	// with no tracer installed.
	NsPerTupleOff float64 `json:"ns_per_tuple_off"`
	// NsPerTupleSampled / NsPerTupleTraced repeat the run with 1-in-1024
	// sampling and with every tuple traced.
	NsPerTupleSampled float64 `json:"ns_per_tuple_sampled"`
	NsPerTupleTraced  float64 `json:"ns_per_tuple_traced"`
	// Overhead percentages are relative to the off run.
	SampledOverheadPct float64 `json:"sampled_overhead_pct"`
	TracedOverheadPct  float64 `json:"traced_overhead_pct"`

	// NsPerRecordDisabled is the microbenchmarked cost of one
	// trace.Record call on an untraced tuple — the only per-hop cost the
	// instrumentation adds when sampling is off.
	NsPerRecordDisabled float64 `json:"ns_per_record_disabled"`
	// DisabledOverheadPct bounds the disabled-tracing overhead on the
	// hot path: per-hop record cost times instrumented hops per tuple,
	// relative to the per-tuple cost. The acceptance bar is <= 5.
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"`

	// NsPerScrape is one full /metrics collection+render, which runs
	// only when a scraper asks — never on the tuple path.
	NsPerScrape float64 `json:"ns_per_scrape"`
}

// instrumentedHopsPerTuple counts the trace.Record call sites a tuple
// crosses on the benchmark topology's longest path (relay chain + entity
// + fragment + result).
const instrumentedHopsPerTuple = 8

func runObservabilityBench(path string) error {
	const nEntities = 4
	setup := func() (*core.Federation, *simnet.SimNet, error) {
		return benchFederation(core.Options{Strategy: dissemination.Locality, Fanout: 3},
			nEntities, miniFactory, nil)
	}
	tracing := func(every int) func(*core.Federation) error {
		return func(fed *core.Federation) error {
			_, err := fed.EnableTracing(every, 4096)
			return err
		}
	}

	// Each tracing rate is compared against its own interleaved untraced
	// runs; the reported off figure is the sampled comparison's.
	rep := observabilityReport{Tuples: planeCostTuples, Entities: nEntities, Queries: nEntities}
	sampled, err := planeCost(setup, tracing(1024))
	if err != nil {
		return err
	}
	traced, err := planeCost(setup, tracing(1))
	if err != nil {
		return err
	}
	rep.NsPerTupleOff = sampled.Off
	rep.NsPerTupleSampled, rep.SampledOverheadPct = sampled.On, sampled.OverheadPct
	rep.NsPerTupleTraced, rep.TracedOverheadPct = traced.On, traced.OverheadPct

	// Microbench the disabled record path: id == 0 returns before any
	// shared-state access, so this is the entire per-hop cost with
	// sampling off.
	const recordIters = 50_000_000
	trace.SetActive(nil)
	start := time.Now()
	for i := 0; i < recordIters; i++ {
		trace.Record(0, trace.StageRelay, "bench")
	}
	rep.NsPerRecordDisabled = float64(time.Since(start).Nanoseconds()) / float64(recordIters)
	rep.DisabledOverheadPct = 100 * rep.NsPerRecordDisabled * instrumentedHopsPerTuple / rep.NsPerTupleOff

	// Scrape cost: collector + render, off the hot path by construction.
	fed, net, err := setup()
	if err != nil {
		return err
	}
	defer net.Close()
	defer fed.Close()
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(planeCostBatch)); err != nil {
		return err
	}
	net.Quiesce(2 * time.Second)
	const scrapeIters = 200
	start = time.Now()
	for i := 0; i < scrapeIters; i++ {
		if err := fed.MetricsRegistry().WritePrometheus(discard{}); err != nil {
			return err
		}
	}
	rep.NsPerScrape = float64(time.Since(start).Nanoseconds()) / float64(scrapeIters)

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("observability bench: off=%.0fns/tuple sampled=%.0fns (%+.1f%%) traced=%.0fns (%+.1f%%)\n",
		rep.NsPerTupleOff, rep.NsPerTupleSampled, rep.SampledOverheadPct,
		rep.NsPerTupleTraced, rep.TracedOverheadPct)
	fmt.Printf("  disabled record: %.2fns/hop -> %.3f%% of the tuple path; scrape: %.0fus\n",
		rep.NsPerRecordDisabled, rep.DisabledOverheadPct, rep.NsPerScrape/1000)
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// discard is io.Discard without importing io for one use.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
