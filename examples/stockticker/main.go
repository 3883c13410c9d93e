// Stockticker: the paper's motivating financial-monitoring scenario at
// federation scale — a dozen entities spread over a wide area, hundreds
// of client queries with overlapping interests, adaptive reallocation
// when the workload drifts, and per-entity billing.
//
// The run prints the dissemination-tree shape, per-entity allocation
// before and after rebalancing, the duplicate-dissemination cost the
// query-graph partitioner saves, and the ledger.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"sspd"
)

const (
	nEntities = 12
	nQueries  = 150
	symbols   = 200
)

func main() {
	net := sspd.NewSimNet(nil)
	defer net.Close()
	catalog := sspd.NewCatalog(symbols, 20)

	fed, err := sspd.NewFederation(net, catalog, sspd.Options{
		Strategy: sspd.Locality,
		Fanout:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	if err := fed.AddSource("quotes", sspd.Point{X: 50, Y: 50},
		sspd.StreamRate{TuplesPerSec: 5000, BytesPerTuple: 60}); err != nil {
		log.Fatal(err)
	}
	if err := fed.AddSource("trades", sspd.Point{X: 55, Y: 50},
		sspd.StreamRate{TuplesPerSec: 2000, BytesPerTuple: 40}); err != nil {
		log.Fatal(err)
	}
	// Entities ringed around the sources.
	for i := 0; i < nEntities; i++ {
		pos := sspd.Point{X: float64(10 + (i%4)*30), Y: float64(10 + (i/4)*30)}
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i), pos, 3, nil); err != nil {
			log.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		log.Fatal(err)
	}

	tree := fed.DisseminationTree("quotes")
	fmt.Printf("dissemination tree (quotes): depth=%d max fanout=%d\n",
		tree.MaxDepth(), tree.MaxFanout())
	root, height := fed.Coordinator().Root()
	fmt.Printf("coordinator tree: root=%s height=%d over %d entities\n\n",
		root, height, fed.Coordinator().Size())

	// A fast query stream: clients around the map submit queries whose
	// interests cluster into 6 overlapping groups.
	ticker := sspd.NewTicker(7, symbols, 1.3)
	qgen := sspd.NewQueryGen(7, ticker.Symbols(), 6, 0.3)
	for i, spec := range qgen.Specs(nQueries) {
		origin := sspd.Point{X: float64(i*7%100) + 1, Y: float64(i*13%100) + 1}
		if _, err := fed.SubmitQuery(spec, origin, nil); err != nil {
			log.Fatal(err)
		}
	}
	net.Quiesce(5 * time.Second)
	printAllocation(fed, "after coordinator-tree allocation")

	// The graph partitioner's view: how much duplicate dissemination
	// does the current allocation cost, and what would rebalancing save?
	g := fed.QueryGraph()
	before, _ := fed.Assignment()
	fmt.Printf("query graph: %d vertices, edge cut %.0f B/s under online allocation\n",
		g.NumVertices(), g.EdgeCut(before))

	moved, err := fed.Rebalance()
	if err != nil {
		log.Fatal(err)
	}
	after, _ := fed.Assignment()
	fmt.Printf("hybrid rebalance: migrated %d queries, edge cut now %.0f B/s\n\n",
		moved, g.EdgeCut(after))
	printAllocation(fed, "after rebalancing")

	// Run the market for a few bursts.
	for round := 0; round < 10; round++ {
		if err := fed.Publish("quotes", ticker.Batch(500)); err != nil {
			log.Fatal(err)
		}
	}
	net.Quiesce(10 * time.Second)
	time.Sleep(200 * time.Millisecond)

	tr := net.Traffic()
	hot, hotBytes := tr.MaxEgress()
	fmt.Printf("published 5000 quotes: total %d KB on the wire, hottest node %s sent %d KB\n",
		tr.TotalBytes()/1024, hot, hotBytes/1024)

	fmt.Println("\nledger (entities are paid by execution time):")
	for _, c := range fed.Ledger().Charges() {
		fmt.Printf("  %-5s %8v\n", c.Entity, c.Execution.Round(time.Millisecond))
	}
}

func printAllocation(fed *sspd.Federation, label string) {
	fmt.Printf("allocation %s:\n", label)
	type row struct {
		id   string
		load float64
	}
	var rows []row
	for _, id := range fed.EntityIDs() {
		rows = append(rows, row{id, fed.EntityLoad(id)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for _, r := range rows {
		fmt.Printf("  %-5s load=%7.1f %s\n", r.id, r.load, bar(r.load, 4))
	}
	fmt.Println()
}

func bar(v float64, scale float64) string {
	n := int(v / scale)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
