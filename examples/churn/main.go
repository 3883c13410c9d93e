// Churn: the "adaptable" half of the paper's title, live — entities join
// and leave a running federation, one crashes and is expelled by
// heartbeat detection, queries migrate and keep producing, dissemination
// trees rewire and reorganize toward shorter edges, and the ledger pays
// each entity for exactly the time it served.
//
// The crash is a hard kill: nothing tells the federation. The failure
// detector notices the missing heartbeats and expels the entity, and its
// queries come back on survivors from their newest quorum-acked
// checkpoint. The program exits non-zero if that does not happen within
// crashDeadline.
package main

import (
	"fmt"
	"log"
	"slices"
	"sync/atomic"
	"time"

	"sspd"
)

// crashDeadline bounds detection plus recovery of the killed entity.
const crashDeadline = 10 * time.Second

func main() {
	net := sspd.NewSimNet(nil)
	defer net.Close()
	catalog := sspd.NewCatalog(100, 20)
	fed, err := sspd.NewFederation(net, catalog, sspd.Options{
		Strategy: sspd.Balanced, // geometry-blind: reorganization will have work
		Fanout:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	if err := fed.AddSource("quotes", sspd.Point{},
		sspd.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pos := sspd.Point{X: float64((i*37)%90 + 5), Y: float64((i*61)%90 + 5)}
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i), pos, 2, nil); err != nil {
			log.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		log.Fatal(err)
	}
	// Heartbeats every 20ms, expelled after 5 misses; every query
	// checkpointed every 50ms onto 2 peers.
	if err := fed.EnableFailureDetection(20*time.Millisecond, 5); err != nil {
		log.Fatal(err)
	}
	if err := fed.EnableCheckpoints(50*time.Millisecond, 2); err != nil {
		log.Fatal(err)
	}

	var results atomic.Int64
	for i := 0; i < 12; i++ {
		spec := sspd.QuerySpec{
			ID:     fmt.Sprintf("q%02d", i),
			Source: "quotes",
			Filters: []sspd.FilterSpec{
				{Field: "price", Lo: float64(i * 80), Hi: float64(i*80 + 200)},
			},
			Load: float64(1 + i%5),
		}
		if _, err := fed.SubmitQuery(spec, sspd.Point{X: float64(i * 8), Y: 20},
			func(sspd.Tuple) { results.Add(1) }); err != nil {
			log.Fatal(err)
		}
	}
	// A query's interest goes live asynchronously: settle before publishing.
	fed.Settle(5 * time.Second)
	tick := sspd.NewTicker(3, 100, 1.3)
	publish := func(label string) {
		before := results.Load()
		if err := fed.Publish("quotes", tick.Batch(500)); err != nil {
			log.Fatal(err)
		}
		net.Quiesce(5 * time.Second)
		time.Sleep(50 * time.Millisecond)
		fmt.Printf("%-34s entities=%d results +%d\n",
			label, len(fed.EntityIDs()), results.Load()-before)
	}

	fmt.Println("phase 1: steady state")
	publish("  published 500 quotes")

	fmt.Println("\nphase 2: two entities join live")
	for _, e := range []struct {
		id string
		x  float64
	}{{"e90", 30}, {"e91", 60}} {
		if err := fed.JoinEntity(e.id, sspd.Point{X: e.x, Y: 50}, 2, nil); err != nil {
			log.Fatal(err)
		}
		fed.Settle(5 * time.Second)
	}
	moved, err := fed.Rebalance()
	if err != nil {
		log.Fatal(err)
	}
	fed.Settle(5 * time.Second)
	fmt.Printf("  rebalance migrated %d queries to the joiners\n", moved)
	publish("  published 500 quotes")

	fmt.Println("\nphase 3: dissemination-tree reorganization")
	tree := fed.DisseminationTree("quotes")
	before := tree.TotalEdgeLength()
	total := 0
	for pass := 0; pass < 10; pass++ {
		n, err := fed.ReorganizeTrees()
		if err != nil {
			log.Fatal(err)
		}
		total += n
		if n == 0 {
			break
		}
	}
	fmt.Printf("  %d rewires: total edge length %.0f -> %.0f\n",
		total, before, tree.TotalEdgeLength())
	publish("  published 500 quotes")

	fmt.Println("\nphase 4: e01 leaves politely, e02 crashes")
	migrated, err := fed.LeaveEntity("e01")
	if err != nil {
		log.Fatal(err)
	}
	fed.Settle(5 * time.Second)
	fmt.Printf("  e01 left; %d queries migrated\n", migrated)

	orphans := 0
	for i := 0; i < 12; i++ {
		if host, _ := fed.QueryEntity(fmt.Sprintf("q%02d", i)); host == "e02" {
			orphans++
		}
	}
	killed := time.Now()
	if err := fed.KillEntity("e02"); err != nil {
		log.Fatal(err)
	}
	// Quotes published into the outage reach e02's queries only when
	// recovery replays them from the source's ring.
	if err := fed.Publish("quotes", tick.Batch(200)); err != nil {
		log.Fatal(err)
	}
	if !waitCrashRecovered(fed, "e02", orphans) {
		log.Fatalf("e02 not expelled and recovered within %v: entities=%v recoveries=%+v",
			crashDeadline, fed.EntityIDs(), fed.Recoveries())
	}
	fed.Settle(5 * time.Second)
	fmt.Printf("  e02 killed; detector expelled it and recovered %d queries in %v\n",
		orphans, time.Since(killed).Round(time.Millisecond))
	for _, r := range fed.Recoveries() {
		fmt.Printf("    %s -> %s: %s (checkpoint %d, %d tuples replayed)\n",
			r.Query, r.Target, r.Outcome, r.Seq, r.Replayed)
	}
	publish("  published 500 quotes")

	fmt.Println("\nledger (pay per execution time):")
	for _, c := range fed.Ledger().Charges() {
		fmt.Printf("  %-5s %8v\n", c.Entity, c.Execution.Round(time.Millisecond))
	}
	fmt.Printf("\ntotal results delivered: %d; federation still serving %d queries on %d entities\n",
		results.Load(), fed.NumQueries(), len(fed.EntityIDs()))
}

// waitCrashRecovered waits until the failure detector has expelled the
// dead entity and each of its n queries has a recovery record.
func waitCrashRecovered(fed *sspd.Federation, dead string, n int) bool {
	for deadline := time.Now().Add(crashDeadline); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if slices.Contains(fed.EntityIDs(), dead) {
			continue
		}
		recovered := 0
		for _, r := range fed.Recoveries() {
			if r.Failed == dead {
				recovered++
			}
		}
		if recovered == n {
			return true
		}
	}
	return false
}
