package main

import (
	"fmt"
	"sort"
	"time"

	"sspd/internal/core"
	"sspd/internal/latency"
	"sspd/internal/simnet"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// latencyReport is BENCH_latency.json: the cost and the accuracy of the
// latency attribution plane (DESIGN.md §11).
type latencyReport struct {
	// SampleEvery is the trace sampling rate both tuple-path runs used.
	SampleEvery int `json:"sample_every"`
	// NsPerTuplePlaneOff / On are end-to-end publish->result costs per
	// tuple with tracing sampled 1/1024 and the latency plane disabled
	// vs. enabled (span decomposition + histograms + SLO watchdog).
	NsPerTuplePlaneOff float64 `json:"ns_per_tuple_latency_off"`
	NsPerTuplePlaneOn  float64 `json:"ns_per_tuple_latency_on"`
	// OverheadPct is the on/off delta; the acceptance bar is <= 1 plus
	// NoisePct, the run's own within-side spread (see planeCostResult) —
	// the same gate as the stats-plane and engine-introspection benches.
	OverheadPct float64 `json:"latency_overhead_pct"`
	NoisePct    float64 `json:"latency_noise_pct"`

	// FederatedP99 is the cluster-wide end-to-end P99 answered by the
	// merged per-entity histograms; OracleP99 is the exact P99 computed
	// by sorting every sampled span's delay. P99BucketDistance is how
	// many log-bucket boundaries apart the two land — the log-bucket
	// quantile contract says at most one.
	FederatedP99      float64 `json:"federated_p99_seconds"`
	OracleP99         float64 `json:"oracle_p99_seconds"`
	OracleSpans       int     `json:"oracle_spans"`
	P99BucketDistance int     `json:"p99_bucket_distance"`
}

// latencySampleEvery is the sampling rate for the overhead runs.
const latencySampleEvery = 1024

func runLatencyBench(path string) error {
	rep := latencyReport{SampleEvery: latencySampleEvery}

	// Part 1 — tuple-path overhead. Both sides sample 1/1024 and run the
	// stats plane (its own cost is gated by bench-statsplane); only the
	// on side attaches the completion hook, decomposition, histograms and
	// the SLO watchdog the stats period clocks.
	cost, err := planeCost(
		func() (*core.Federation, *simnet.SimNet, error) {
			return benchFederation(quietOptions(3), 4, miniFactory, func(fed *core.Federation) error {
				if _, err := fed.EnableTracing(latencySampleEvery, 4096); err != nil {
					return err
				}
				return fed.EnableStatsPlane(50 * time.Millisecond)
			})
		},
		func(fed *core.Federation) error { return fed.EnableLatencyAttribution() })
	if err != nil {
		return err
	}
	rep.NsPerTuplePlaneOff, rep.NsPerTuplePlaneOn = cost.Off, cost.On
	rep.OverheadPct, rep.NoisePct = cost.OverheadPct, cost.NoisePct

	// Part 2 — merge accuracy. Every tuple sampled on a 3-entity
	// federation; the federated P99 (per-entity histograms merged
	// through the stats rows) must land within one log-bucket of the
	// exact P99 computed from the raw spans themselves.
	if err := func() error {
		fed, net, err := benchFederation(quietOptions(2), 3, miniFactory, nil)
		if err != nil {
			return err
		}
		defer net.Close()
		defer fed.Close()
		const oracleTuples = 2000
		tr, err := fed.EnableTracing(1, 2*oracleTuples)
		if err != nil {
			return err
		}
		if err := fed.EnableLatencyAttribution(); err != nil {
			return err
		}
		if err := fed.EnableStatsPlane(0); err != nil {
			return err
		}
		tick := workload.NewTicker(1, 100, 1.2)
		for sent := 0; sent < oracleTuples; sent += 100 {
			if err := fed.Publish("quotes", tick.Batch(100)); err != nil {
				return err
			}
		}
		net.Quiesce(10 * time.Second)
		for i := 0; i < 2; i++ {
			fed.StatsTick()
			net.Quiesce(2 * time.Second)
		}

		att, ok := fed.ClusterLatency()
		if !ok || att.E2E.Count == 0 {
			return fmt.Errorf("no federated latency view (count=%d)", att.E2E.Count)
		}
		rep.FederatedP99 = att.E2E.Quantile(0.99)

		// The oracle: decompose every buffered span exactly as the plane
		// did, but keep the raw delays and sort them.
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
		if len(exact) == 0 {
			return fmt.Errorf("oracle found no completed spans")
		}
		if uint64(len(exact)) != att.E2E.Count {
			return fmt.Errorf("oracle saw %d delays, federation %d", len(exact), att.E2E.Count)
		}
		sort.Float64s(exact)
		rep.OracleSpans = len(exact)
		idx := int(0.99*float64(len(exact))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(exact) {
			idx = len(exact) - 1
		}
		rep.OracleP99 = exact[idx]

		bucketOf := func(v float64) int {
			bounds := latency.Bounds()
			for i, b := range bounds {
				if v <= b {
					return i
				}
			}
			return len(bounds)
		}
		rep.P99BucketDistance = bucketOf(rep.FederatedP99) - bucketOf(rep.OracleP99)
		if rep.P99BucketDistance < 0 {
			rep.P99BucketDistance = -rep.P99BucketDistance
		}
		return nil
	}(); err != nil {
		return err
	}

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("latency bench: tuple off=%.0fns on=%.0fns (%+.2f%%, noise %.2f%% @1/%d) fed p99=%.3gs oracle p99=%.3gs (bucket distance %d over %d spans)\n",
		rep.NsPerTuplePlaneOff, rep.NsPerTuplePlaneOn, rep.OverheadPct, rep.NoisePct, rep.SampleEvery,
		rep.FederatedP99, rep.OracleP99, rep.P99BucketDistance, rep.OracleSpans)
	fmt.Printf("  wrote %s\n", path)
	if bar := maxPlaneOverheadPct + rep.NoisePct; rep.OverheadPct > bar {
		return fmt.Errorf("latency plane adds %.2f%% to the tuple path (bar: %.1f%% + %.2f%% measured noise)",
			rep.OverheadPct, maxPlaneOverheadPct, rep.NoisePct)
	}
	if rep.P99BucketDistance > 1 {
		return fmt.Errorf("federated P99 is %d buckets from the oracle (bar: 1)", rep.P99BucketDistance)
	}
	return nil
}
