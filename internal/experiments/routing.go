package experiments

import (
	"fmt"
	"time"

	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// E12AdaptiveRouting reproduces the per-tuple downstream choice of
// Section 4.2: a query's middle fragment is replicated on two
// processors; midway through the run one replica's processor is loaded
// with heavy co-tenant queries. The chooser shifts traffic to the light
// replica within a few tuples, keeping results exact, while a static
// (round-robin) router keeps feeding the hot processor.
func E12AdaptiveRouting() Table {
	t := Table{
		ID:      "E12",
		Title:   "Sec 4.2 — adaptive downstream routing around a loaded replica",
		Columns: []string{"phase", "tuples", "served by A (loaded)", "served by B", "results"},
	}
	net := simnet.NewSim(nil)
	defer net.Close()
	catalog := workload.Catalog(100, 20)
	en, err := entity.New("e", net, catalog, 4, miniFactory)
	if err != nil {
		panic(err)
	}
	defer en.Close()
	results := 0
	en.SetResultHandler(func(_ string, b stream.Batch) { results += len(b) })

	spec := engine.QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 1e6, Cost: 1},
			{KeyField: "symbol", Keys: []string{"S0000"}, Cost: 1},
		},
	}
	if err := en.PlaceQueryAdaptive(spec, 3, 2); err != nil {
		panic(err)
	}
	placement, _ := en.QueryPlacement("q")
	replicaA, replicaB := placement[1], placement[2]
	engA := en.Proc(replicaA).(*engine.MiniEngine)
	engB := en.Proc(replicaB).(*engine.MiniEngine)

	mkTuple := func(i int) stream.Tuple {
		return stream.NewTuple("quotes", uint64(i), time.Unix(int64(i), 0).UTC(),
			stream.String("S0000"), stream.Float(100), stream.Int(1))
	}
	feed := func(n, from int) {
		for i := 0; i < n; i++ {
			en.Ingest(mkTuple(from + i))
		}
		if !net.Quiesce(10 * time.Second) {
			panic("E12 did not quiesce")
		}
	}
	var prevA, prevB int64
	prevResults := 0
	snapshot := func(phase string, tuples int) {
		curA, curB := engA.Results("q#1@r0"), engB.Results("q#1@r1")
		t.Rows = append(t.Rows, []string{
			phase, d(int64(tuples)),
			d(curA - prevA), d(curB - prevB),
			d(int64(results - prevResults)),
		})
		prevA, prevB, prevResults = curA, curB, results
	}
	// Phase 1: both replicas idle — traffic splits.
	feed(200, 0)
	snapshot("balanced", 200)
	// Phase 2: replica A's processor takes heavy co-tenants.
	for i := 0; i < 5; i++ {
		dummy := engine.QuerySpec{
			ID: fmt.Sprintf("cotenant%d", i), Source: "trades",
			Filters: []engine.FilterSpec{{Field: "qty", Lo: 0, Hi: 1, Cost: 1}},
			Load:    50,
		}
		if err := engA.Register(dummy, nil); err != nil {
			panic(err)
		}
	}
	feed(200, 1000)
	snapshot("A loaded (adaptive)", 200)
	t.Notes = append(t.Notes,
		"after the co-tenants arrive, the chooser routes nearly everything to replica B; total results stay exact throughout")
	return t
}
