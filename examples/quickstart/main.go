// Quickstart: a minimal two-layer federation — one stock-quote source,
// two entities, one continuous query submitted through the coordinator
// tree — printing the first results it receives.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"sspd"
)

func main() {
	// The simulated network meters every byte; nil = zero latency.
	net := sspd.NewSimNet(nil)
	defer net.Close()

	// The global schema catalog (quotes/trades/flows) over 100 symbols.
	catalog := sspd.NewCatalog(100, 20)

	fed, err := sspd.NewFederation(net, catalog, sspd.Options{
		Strategy: sspd.Locality,
		Fanout:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	// One source and two entities, placed in the coordinate space.
	if err := fed.AddSource("quotes", sspd.Point{X: 0, Y: 0},
		sspd.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		log.Fatal(err)
	}
	for i, pos := range []sspd.Point{{X: 20, Y: 0}, {X: 40, Y: 10}} {
		if err := fed.AddEntity(fmt.Sprintf("entity-%d", i), pos, 2, nil); err != nil {
			log.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		log.Fatal(err)
	}

	// A continuous query: quotes for two symbols in a price band.
	spec := sspd.QuerySpec{
		ID:     "watch-tech",
		Source: "quotes",
		Filters: []sspd.FilterSpec{
			{KeyField: "symbol", Keys: []string{"S0000", "S0001"}, Cost: 1},
			{Field: "price", Lo: 100, Hi: 900, Cost: 1},
		},
	}
	var mu sync.Mutex
	results := 0
	entity, err := fed.SubmitQuery(spec, sspd.Point{X: 25, Y: 5}, func(t sspd.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		results++
		if results <= 5 {
			fmt.Printf("result %d: %v\n", results, t)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q allocated to %s via the coordinator tree\n", spec.ID, entity)

	// Publish a burst of quotes from the source; the dissemination tree
	// early-filters everything the query doesn't want.
	ticker := sspd.NewTicker(42, 100, 1.5)
	for round := 0; round < 20; round++ {
		if err := fed.Publish("quotes", ticker.Batch(100)); err != nil {
			log.Fatal(err)
		}
	}
	net.Quiesce(2 * time.Second)
	time.Sleep(100 * time.Millisecond) // let the engine's shard drain

	mu.Lock()
	total := results
	mu.Unlock()
	tr := net.Traffic()
	fmt.Printf("\npublished 2000 quotes, delivered %d results\n", total)
	fmt.Printf("network: %d messages, %d bytes total; source egress %d bytes\n",
		tr.TotalMessages(), tr.TotalBytes(), tr.EgressBytes("src:quotes"))
	fmt.Printf("entity charged: %v of execution time\n", fed.Ledger().Charge(entity).Round(time.Millisecond))
}
