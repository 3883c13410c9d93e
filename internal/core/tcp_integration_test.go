package core

import (
	"sync"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// TestFederationOverTCP runs the complete two-layer pipeline over real
// sockets: dissemination, interest registration, query allocation,
// fragment chaining, migration, and rebalancing — the paper's "deploy
// onto real network environment" exercised in-process.
func TestFederationOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := simnet.NewTCP()
	defer net.Close()
	catalog := workload.Catalog(100, 20)
	fed, err := New(net, catalog, Options{
		Strategy:          dissemination.Locality,
		Fanout:            3,
		FragmentsPerQuery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", simnet.Point{},
		StreamRate{TuplesPerSec: 500, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		id string
		x  float64
	}{{"tokyo", 10}, {"zurich", 40}, {"nyc", 70}} {
		if err := fed.AddEntity(e.id, simnet.Point{X: e.x}, 2, miniFactory); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	counts := map[string]int{}
	specs := []struct {
		id     string
		lo, hi float64
	}{
		{"wide", 0, 1000},
		{"low", 0, 300},
		{"high", 700, 1000},
	}
	for _, q := range specs {
		qid := q.id
		if _, err := fed.SubmitQuery(priceQuery(q.id, q.lo, q.hi),
			simnet.Point{X: 35}, func(stream.Tuple) {
				mu.Lock()
				counts[qid]++
				mu.Unlock()
			}); err != nil {
			t.Fatal(err)
		}
	}
	// TCP has no Quiesce; give registrations a moment to land.
	time.Sleep(300 * time.Millisecond)

	tick := workload.NewTicker(44, 100, 1.3)
	batch := tick.Batch(200)
	want := map[string]int{}
	for _, q := range specs {
		for _, tu := range batch {
			p := tu.Value(1).AsFloat()
			if p >= q.lo && p <= q.hi {
				want[q.id]++
			}
		}
	}
	if err := fed.Publish("quotes", batch); err != nil {
		t.Fatal(err)
	}
	waitFor := func(desc string) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			done := true
			for _, q := range specs {
				if counts[q.id] < want[q.id] {
					done = false
				}
			}
			mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("%s: counts=%v want=%v", desc, counts, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("first publish")
	mu.Lock()
	for _, q := range specs {
		if counts[q.id] != want[q.id] {
			t.Errorf("%s: %d results, want %d", q.id, counts[q.id], want[q.id])
		}
	}
	mu.Unlock()

	// Rebalance over TCP, then publish again: everything still works.
	if _, err := fed.Rebalance(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	batch2 := tick.Batch(100)
	for _, q := range specs {
		for _, tu := range batch2 {
			p := tu.Value(1).AsFloat()
			if p >= q.lo && p <= q.hi {
				want[q.id]++
			}
		}
	}
	if err := fed.Publish("quotes", batch2); err != nil {
		t.Fatal(err)
	}
	waitFor("post-rebalance publish")

	// Real bytes crossed real sockets.
	if net.Traffic().TotalBytes() == 0 {
		t.Fatal("no TCP traffic metered")
	}
}
