// Benchmarks regenerating every table and figure of the reproduction —
// one benchmark per paper artifact (DESIGN.md §4). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its full experiment per iteration, so ns/op is
// the end-to-end cost of regenerating that artifact. The tables
// themselves are printed by cmd/sspd-bench.
package sspd_test

import (
	"testing"
	"time"

	"sspd"
	"sspd/internal/experiments"
)

func benchTable(b *testing.B, run func() experiments.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := run()
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", tab.ID)
		}
	}
}

// BenchmarkFigure1TwoLayerEndToEnd regenerates Figure 1: the two-layer
// federation exercised end to end.
func BenchmarkFigure1TwoLayerEndToEnd(b *testing.B) {
	benchTable(b, experiments.Figure1TwoLayer)
}

// BenchmarkTable1CooperationModes regenerates Table 1: the same workload
// under each degree of cooperation.
func BenchmarkTable1CooperationModes(b *testing.B) {
	benchTable(b, experiments.Table1CooperationModes)
}

// BenchmarkFigure2QueryGraphPartitioning regenerates Figure 2: the
// 5-query graph and plans (a)/(b).
func BenchmarkFigure2QueryGraphPartitioning(b *testing.B) {
	benchTable(b, experiments.Figure2QueryGraph)
}

// BenchmarkFigure3StreamDelegation regenerates Figure 3: delegation vs a
// single receiving processor.
func BenchmarkFigure3StreamDelegation(b *testing.B) {
	benchTable(b, experiments.Figure3Delegation)
}

// BenchmarkDisseminationScalability regenerates E1.
func BenchmarkDisseminationScalability(b *testing.B) {
	benchTable(b, experiments.E1DisseminationScalability)
}

// BenchmarkEarlyFiltering regenerates E2.
func BenchmarkEarlyFiltering(b *testing.B) {
	benchTable(b, experiments.E2EarlyFiltering)
}

// BenchmarkCoordinatorTree regenerates E3.
func BenchmarkCoordinatorTree(b *testing.B) {
	benchTable(b, experiments.E3CoordinatorTree)
}

// BenchmarkLoadDistribution regenerates E4.
func BenchmarkLoadDistribution(b *testing.B) {
	benchTable(b, experiments.E4LoadDistribution)
}

// BenchmarkAdaptiveRepartitioning regenerates E5.
func BenchmarkAdaptiveRepartitioning(b *testing.B) {
	benchTable(b, experiments.E5AdaptiveRepartitioning)
}

// BenchmarkOperatorPlacement regenerates E6.
func BenchmarkOperatorPlacement(b *testing.B) {
	benchTable(b, experiments.E6OperatorPlacement)
}

// BenchmarkAdaptiveOrdering regenerates E7.
func BenchmarkAdaptiveOrdering(b *testing.B) {
	benchTable(b, experiments.E7AdaptiveOrdering)
}

// BenchmarkCouplingTradeoff regenerates E8.
func BenchmarkCouplingTradeoff(b *testing.B) {
	benchTable(b, experiments.E8CouplingTradeoff)
}

// BenchmarkFederationIngest measures the steady-state per-tuple cost of
// the full pipeline: source relay → dissemination tree → delegation →
// query fragments → result.
func BenchmarkFederationIngest(b *testing.B) {
	net := sspd.NewSimNet(nil)
	defer net.Close()
	catalog := sspd.NewCatalog(100, 20)
	fed, err := sspd.NewFederation(net, catalog, sspd.Options{Fanout: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", sspd.Point{}, sspd.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := fed.AddEntity(string(rune('a'+i)), sspd.Point{X: float64(10 * (i + 1))}, 2,
			func(name string, c *sspd.Catalog) sspd.Processor { return sspd.NewMiniEngine(name, c) }); err != nil {
			b.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		b.Fatal(err)
	}
	spec := sspd.QuerySpec{
		ID:     "bench",
		Source: "quotes",
		Filters: []sspd.FilterSpec{
			{Field: "price", Lo: 0, Hi: 500, Cost: 1},
		},
	}
	if _, err := fed.SubmitQuery(spec, sspd.Point{X: 20}, nil); err != nil {
		b.Fatal(err)
	}
	net.Quiesce(5 * time.Second)
	tick := sspd.NewTicker(1, 100, 1.3)
	batch := tick.Batch(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fed.Publish("quotes", batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	net.Quiesce(30 * time.Second)
}

// BenchmarkEngineIngest measures the bare single-site engine: tuples per
// second through one filter query, no network.
func BenchmarkEngineIngest(b *testing.B) {
	catalog := sspd.NewCatalog(100, 20)
	eng := sspd.NewMiniEngine("bench", catalog)
	defer eng.Close()
	if err := eng.Register(sspd.QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []sspd.FilterSpec{
			{Field: "price", Lo: 0, Hi: 500, Cost: 1},
		},
	}, nil); err != nil {
		b.Fatal(err)
	}
	tick := sspd.NewTicker(1, 100, 1.3)
	tuples := tick.Batch(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tuples)
		if err := eng.FeedQueryBatch("q", tuples[j:j+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterestAggregation regenerates E10 (extension: interest
// aggregation cap trade-off).
func BenchmarkInterestAggregation(b *testing.B) {
	benchTable(b, experiments.E10InterestAggregation)
}

// BenchmarkTreeReorganization regenerates E11 (extension: zero-loss
// dissemination-tree reorganization).
func BenchmarkTreeReorganization(b *testing.B) {
	benchTable(b, experiments.E11TreeReorganization)
}

// BenchmarkAdaptiveRouting regenerates E12 (per-tuple downstream choice
// around a loaded replica).
func BenchmarkAdaptiveRouting(b *testing.B) {
	benchTable(b, experiments.E12AdaptiveRouting)
}
