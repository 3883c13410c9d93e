package main

import (
	"fmt"
	"time"

	"sspd/internal/core"
	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// engineobsReport is appended into BENCH_observability.json: the cost
// of the engine introspection plane (DESIGN.md §14). Shard telemetry is
// batch-grained atomics on the publish path plus a periodic watchdog
// evaluation off it; the end-to-end on/off comparison bounds what both
// cost flowing tuples. The stats plane is enabled on BOTH sides so the
// delta isolates the introspection plane alone.
type engineobsReport struct {
	// NsPerTupleEngineObsOff / On are end-to-end publish->result costs
	// per tuple with the engine introspection plane disabled and enabled,
	// stats plane (50ms digest period, the watchdog's clock) on in both
	// cases.
	NsPerTupleEngineObsOff float64 `json:"ns_per_tuple_engineobs_off"`
	NsPerTupleEngineObsOn  float64 `json:"ns_per_tuple_engineobs_on"`
	// EngineObsOverheadPct is the on/off delta; the acceptance bar is
	// <= 1 plus the run's own measured noise floor.
	EngineObsOverheadPct float64 `json:"engineobs_overhead_pct"`
	// EngineObsNoisePct is the within-side spread of the rounds (median
	// over best, summed across the off and on sides, as a percentage):
	// what this machine's scheduler jitter alone does to the
	// measurement. The gate widens by it, like the stats-plane bench.
	EngineObsNoisePct float64 `json:"engineobs_noise_pct"`
}

func runEngineobsBench(path string) error {
	var rep engineobsReport

	// End-to-end tuple path through shard engines (the instrumented
	// path), engine introspection off vs on; the stats plane — which
	// clocks the watchdog, 50ms period — runs on both sides.
	shard := func(name string, c *stream.Catalog) engine.Processor {
		return engine.NewShard(name, c, 2)
	}
	cost, err := planeCost(
		func() (*core.Federation, *simnet.SimNet, error) {
			return benchFederation(quietOptions(3), 4, shard, func(fed *core.Federation) error {
				return fed.EnableStatsPlane(50 * time.Millisecond)
			})
		},
		func(fed *core.Federation) error { return fed.EnableEngineIntrospection() })
	if err != nil {
		return err
	}
	rep.NsPerTupleEngineObsOff, rep.NsPerTupleEngineObsOn = cost.Off, cost.On
	rep.EngineObsNoisePct, rep.EngineObsOverheadPct = cost.NoisePct, cost.OverheadPct

	if err := appendReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("engineobs bench: tuple off=%.0fns on=%.0fns (%+.2f%%, noise %.2f%%)\n",
		rep.NsPerTupleEngineObsOff, rep.NsPerTupleEngineObsOn,
		rep.EngineObsOverheadPct, rep.EngineObsNoisePct)
	fmt.Printf("  appended to %s\n", path)
	if bar := maxPlaneOverheadPct + rep.EngineObsNoisePct; rep.EngineObsOverheadPct > bar {
		return fmt.Errorf("engine introspection adds %.2f%% to the tuple path (bar: %.1f%% + %.2f%% measured noise)",
			rep.EngineObsOverheadPct, maxPlaneOverheadPct, rep.EngineObsNoisePct)
	}
	return nil
}
