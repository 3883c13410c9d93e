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
	flag.Parse()
	if *list {
		for _, id := range order {
			fmt.Println(id)
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
