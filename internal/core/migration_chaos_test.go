package core

import (
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// TestMigrationChaosStatefulZeroLoss is the satellite-5 scenario: a
// windowed-aggregate query migrates around the cluster mid-stream while
// every link jitters and reorders, and one hop is sabotaged by a
// destination-placement failure. The protocol must deliver every quote
// exactly once, keep the count window warm across every committed hop,
// and roll the sabotaged hop back onto the source cleanly — and only
// that hop — on either engine.
func TestMigrationChaosStatefulZeroLoss(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) { migrationChaosStatefulZeroLoss(t, eng.factory) })
	}
}

func migrationChaosStatefulZeroLoss(t *testing.T, factory entity.EngineFactory) {
	const window = 64
	fed, plan := newChaosFederation(t, 7, 3, Options{
		Strategy: dissemination.Balanced,
		Fanout:   2,
	}, 25*time.Millisecond, factory)

	log := &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", window), "e00", log.observe); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// Link chaos: delivery jitter plus reordering on every link. No
	// drops — transport loss is the recovery suite's concern; here any
	// missing result indicts the migration protocol itself.
	plan.SetDefaultFaults(simnet.LinkFaults{
		Reorder:      0.25,
		ReorderDelay: 2 * time.Millisecond,
		Jitter:       time.Millisecond,
	})
	plan.SetEnabled(true)

	tick := workload.NewTicker(11, 100, 1.2)
	var published stream.Batch
	publish := func(k int) {
		b := tick.Batch(k)
		published = append(published, b...)
		if err := fed.Publish("quotes", b); err != nil {
			t.Fatal(err)
		}
	}

	publish(100)
	fed.Settle(2 * time.Second)

	// Migrate around the ring with tuples in flight at every hop.
	for _, to := range []string{"e01", "e02", "e00", "e01"} {
		publish(50)
		if err := fed.MigrateQuery("agg", to); err != nil {
			t.Fatalf("migrate -> %s under chaos: %v", to, err)
		}
	}

	// Sabotage the next hop: a conflicting placement already sits on
	// e02, so PREPARE fails and the protocol must leave the query
	// serving on e01.
	fed.Settle(2 * time.Second)
	blocker := engine.QuerySpec{
		ID:     "agg",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: -10, Hi: -1, Cost: 1},
		},
	}
	fed.mu.Lock()
	sabotaged := fed.entities["e02"]
	fed.mu.Unlock()
	if err := sabotaged.ent.PlaceQuery(blocker, 1); err != nil {
		t.Fatal(err)
	}
	publish(50)
	if err := fed.MigrateQuery("agg", "e02"); err == nil {
		t.Fatal("migration onto sabotaged destination succeeded")
	}
	if e, _ := fed.QueryEntity("agg"); e != "e01" {
		t.Fatalf("rollback left query on %s, want e01", e)
	}
	if _, err := sabotaged.ent.RemoveQuery("agg"); err != nil {
		t.Fatal(err)
	}

	// The survivor keeps serving through the tail of the storm.
	publish(50)
	fed.Settle(2 * time.Second)
	plan.SetEnabled(false)
	drainAll(fed)

	counts, values := log.snapshot()
	lost, dup := 0, 0
	for _, tu := range published {
		switch counts[tu.Seq] {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if lost != 0 || dup != 0 {
		t.Fatalf("exactly-once violated: %d lost, %d duplicated of %d published",
			lost, dup, len(published))
	}
	if len(values) != len(published) {
		t.Fatalf("results = %d, published = %d", len(values), len(published))
	}
	// Window-state continuity across four commits and one rollback: the
	// warmup ramp 1..window-1 appears exactly once; every other result
	// saw a full window.
	assertWindowContinuity(t, values, window)

	recs := fed.Migrations()
	commits, rollbacks := 0, 0
	for _, r := range recs {
		switch r.Outcome {
		case "commit":
			commits++
			if !r.Stateful || r.StateBytes <= 0 {
				t.Fatalf("chaos commit lost state: %+v", r)
			}
		case "rollback":
			rollbacks++
		}
	}
	if commits != 4 || rollbacks != 1 {
		t.Fatalf("migration history: %d commits, %d rollbacks; want 4 and 1", commits, rollbacks)
	}
}
