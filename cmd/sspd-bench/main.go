// sspd-bench regenerates every table and figure of the reproduction (see
// DESIGN.md §4 and EXPERIMENTS.md). With no arguments it runs all
// experiments; pass experiment IDs (f1 t1 f2 f3 e1..e8) to run a subset.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sspd/internal/experiments"
)

var runners = map[string]func() experiments.Table{
	"f1":  experiments.Figure1TwoLayer,
	"t1":  experiments.Table1CooperationModes,
	"f2":  experiments.Figure2QueryGraph,
	"f3":  experiments.Figure3Delegation,
	"e1":  experiments.E1DisseminationScalability,
	"e2":  experiments.E2EarlyFiltering,
	"e3":  experiments.E3CoordinatorTree,
	"e4":  experiments.E4LoadDistribution,
	"e5":  experiments.E5AdaptiveRepartitioning,
	"e6":  experiments.E6OperatorPlacement,
	"e7":  experiments.E7AdaptiveOrdering,
	"e8":  experiments.E8CouplingTradeoff,
	"e10": experiments.E10InterestAggregation,
	"e11": experiments.E11TreeReorganization,
	"e12": experiments.E12AdaptiveRouting,
}

var order = []string{"f1", "t1", "f2", "f3", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12"}

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	obs := flag.String("observability", "", "run the observability overhead bench and write its JSON report to this file")
	statsplane := flag.String("statsplane", "", "run the stats-plane overhead bench and append its results into this JSON report (typically BENCH_observability.json)")
	engineobs := flag.String("engineobs", "", "run the engine-introspection overhead bench and append its results into this JSON report (typically BENCH_observability.json)")
	chaos := flag.String("chaos", "", "run the chaos/recovery bench with this fault spec, e.g. drop=0.05,dup=0.02,partition=500ms,crash=1,seed=7")
	chaosOut := flag.String("chaos-out", "BENCH_robustness.json", "output path for the chaos bench JSON report")
	migration := flag.String("migration", "", "run the live-migration bench and write its JSON report to this file (non-zero exit on tuple loss or pause over budget)")
	latencyOut := flag.String("latency", "", "run the latency-attribution bench (tuple-path overhead + federated-P99 accuracy) and write its JSON report to this file")
	recoveryOut := flag.String("recovery", "", "run the checkpoint/crash-recovery bench (hard kill, quorum restore, bounded replay) and write its JSON report to this file (non-zero exit on committed-result loss or budget breach)")
	adaptationOut := flag.String("adaptation", "", "run the adaptation-module bench (tuple-routed vs. static downstream selection under a selectivity-drifting workload) and write its JSON report to this file (non-zero exit on tuple loss or when routing misses the noise-calibrated margin)")
	flag.Parse()
	if *list {
		for _, id := range order {
			fmt.Println(id)
		}
		return
	}
	// A report flag selects one gate/bench mode instead of the tables.
	for _, mode := range []struct {
		out *string
		run func(path string) error
	}{
		{obs, runObservabilityBench},
		{statsplane, runStatsplaneBench},
		{engineobs, runEngineobsBench},
		{chaos, func(spec string) error { return runChaosBench(spec, *chaosOut) }},
		{migration, runMigrationBench},
		{latencyOut, runLatencyBench},
		{recoveryOut, runRecoveryBench},
		{adaptationOut, runAdaptationBench},
	} {
		if *mode.out == "" {
			continue
		}
		if err := mode.run(*mode.out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = order
	}
	for _, raw := range ids {
		id := strings.ToLower(raw)
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", raw)
			os.Exit(2)
		}
		start := time.Now()
		table := run()
		table.Fprint(os.Stdout)
		fmt.Printf("  [%s completed in %v]\n\n", strings.ToUpper(id), time.Since(start).Round(time.Millisecond))
	}
}
