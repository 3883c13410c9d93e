package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"sspd/internal/core"
	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/querygraph"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func miniFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.NewMini(name, c)
}

// entityPos places entity i on a grid around the sources.
func entityPos(i int) simnet.Point {
	return simnet.Point{X: float64(10 + (i%4)*25), Y: float64(10 + (i/4)*25)}
}

// buildFederation constructs a started federation with the standard
// experiment topology.
func buildFederation(net *simnet.SimNet, nEntities, nProcs int,
	strategy dissemination.Strategy, frags int) (*core.Federation, error) {
	catalog := workload.Catalog(200, 50)
	fed, err := core.New(net, catalog, core.Options{
		Strategy:          strategy,
		Fanout:            3,
		FragmentsPerQuery: frags,
	})
	if err != nil {
		return nil, err
	}
	if err := fed.AddSource("quotes", simnet.Point{X: 50, Y: 50},
		core.StreamRate{TuplesPerSec: 5000, BytesPerTuple: 60}); err != nil {
		return nil, err
	}
	if err := fed.AddSource("trades", simnet.Point{X: 55, Y: 50},
		core.StreamRate{TuplesPerSec: 2000, BytesPerTuple: 40}); err != nil {
		return nil, err
	}
	for i := 0; i < nEntities; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i), entityPos(i), nProcs, miniFactory); err != nil {
			return nil, err
		}
	}
	if err := fed.Start(); err != nil {
		return nil, err
	}
	return fed, nil
}

// Figure1TwoLayer reproduces Figure 1: the two-layer network, verified
// end to end — sources feed dissemination trees feeding entities whose
// processor clusters evaluate queries.
func Figure1TwoLayer() Table {
	net := simnet.NewSim(nil)
	defer net.Close()
	fed, err := buildFederation(net, 8, 3, dissemination.Locality, 2)
	if err != nil {
		panic(err)
	}
	defer fed.Close()

	tick := workload.NewTicker(21, 200, 1.3)
	qgen := workload.NewQueryGen(21, tick.Symbols(), 4, 0.3)
	for i, spec := range qgen.Specs(40) {
		if _, err := fed.SubmitQuery(spec, entityPos(i%8), nil); err != nil {
			panic(err)
		}
	}
	net.Quiesce(10 * time.Second)
	net.Traffic().Reset()
	published := 0
	for round := 0; round < 4; round++ {
		b := tick.Batch(250)
		published += len(b)
		if err := fed.Publish("quotes", b); err != nil {
			panic(err)
		}
	}
	net.Quiesce(10 * time.Second)
	time.Sleep(50 * time.Millisecond)

	tree := fed.DisseminationTree("quotes")
	root, height := fed.Coordinator().Root()
	tr := net.Traffic()
	_, hottest := tr.MaxEgress()

	t := Table{
		ID:      "F1",
		Title:   "Figure 1 — two-layer network, end to end",
		Columns: []string{"layer property", "value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("entities (inter-entity layer)", "8")
	add("processors per entity (intra-entity layer)", "3")
	add("coordinator tree root / height", fmt.Sprintf("%s / %d", root, height))
	add("dissemination tree depth (quotes)", d(int64(tree.MaxDepth())))
	add("dissemination tree max fanout", d(int64(tree.MaxFanout())))
	add("queries allocated via coordinator tree", d(int64(fed.NumQueries())))
	add("quotes published", d(int64(published)))
	add("total bytes on the wire", d(tr.TotalBytes()))
	add("hottest node egress bytes", d(hottest))
	t.Notes = append(t.Notes,
		"every query was allocated by descending the coordinator tree; no node relayed to more than `fanout` children")
	return t
}

// Table1CooperationModes reproduces Table 1: the same workload run under
// each degree of coupling the paper tabulates.
func Table1CooperationModes() Table {
	type mode struct {
		name     string
		strategy dissemination.Strategy
		coopQ    bool // query-level load sharing via coordinator+rebalance
		frags    int  // >1 = operator-level sharing inside entities
	}
	modes := []mode{
		{"non-coop transfer + isolated", dissemination.SourceDirect, false, 1},
		{"coop transfer + isolated", dissemination.Locality, false, 1},
		{"coop transfer + query-level", dissemination.Locality, true, 1},
		{"coop transfer + operator-level", dissemination.Locality, true, 2},
	}
	t := Table{
		ID:      "T1",
		Title:   "Table 1 — degrees of cooperation under one workload",
		Columns: []string{"mode", "src egress B", "total B", "load imbalance"},
	}
	const nEntities = 8
	for _, m := range modes {
		net := simnet.NewSim(nil)
		fed, err := buildFederation(net, nEntities, 2, m.strategy, m.frags)
		if err != nil {
			panic(err)
		}
		tick := workload.NewTicker(31, 200, 1.3)
		qgen := workload.NewQueryGen(31, tick.Symbols(), 4, 0.4)
		specs := qgen.Specs(64)
		for i, spec := range specs {
			if m.coopQ {
				// Cooperative allocation: coordinator tree, load-aware.
				if _, err := fed.SubmitQuery(spec, entityPos(i%nEntities), nil); err != nil {
					panic(err)
				}
			} else {
				// Isolated: each client uses its nearest entity —
				// clients cluster in one corner, so load piles up.
				target := fmt.Sprintf("e%02d", i%3)
				if err := fed.SubmitQueryTo(spec, target, nil); err != nil {
					panic(err)
				}
			}
		}
		if m.coopQ {
			if _, err := fed.Rebalance(); err != nil {
				panic(err)
			}
		}
		net.Quiesce(10 * time.Second)
		net.Traffic().Reset()
		for round := 0; round < 4; round++ {
			if err := fed.Publish("quotes", tick.Batch(200)); err != nil {
				panic(err)
			}
		}
		net.Quiesce(10 * time.Second)
		time.Sleep(50 * time.Millisecond)

		loads := make([]float64, 0, nEntities)
		for _, id := range fed.EntityIDs() {
			loads = append(loads, fed.EntityLoad(id))
		}
		tr := net.Traffic()
		t.Rows = append(t.Rows, []string{
			m.name,
			d(tr.EgressBytes("src:quotes")),
			d(tr.TotalBytes()),
			f(querygraph.Imbalance(loads)),
		})
		fed.Close()
		net.Close()
	}
	t.Notes = append(t.Notes,
		"cooperated stream transfer caps source egress; load sharing flattens the entity-load imbalance (paper Table 1's two axes)")
	return t
}

// Figure2QueryGraph reproduces Figure 2: the worked 5-query example with
// plans (a) and (b), plus our partitioner's answer.
func Figure2QueryGraph() Table {
	g := querygraph.Figure2Graph()
	planA, planB := querygraph.Figure2PlanA(), querygraph.Figure2PlanB()
	ours, err := querygraph.Partition(g, querygraph.Options{K: 2, Epsilon: 0.2})
	if err != nil {
		panic(err)
	}
	row := func(name string, p querygraph.Partitioning) []string {
		w := g.PartitionWeights(p, 2)
		group0 := ""
		for _, v := range g.Vertices() {
			if p[v] == p["Q3"] {
				if group0 != "" {
					group0 += ","
				}
				group0 += string(v)
			}
		}
		return []string{name, "{" + group0 + "}", f(g.EdgeCut(p)), f(querygraph.Imbalance(w))}
	}
	t := Table{
		ID:      "F2",
		Title:   "Figure 2 — query graph, duplicate dissemination of plans (a) and (b)",
		Columns: []string{"plan", "Q3's side", "edge cut B/s", "imbalance"},
		Rows: [][]string{
			row("plan (a) {Q3,Q4}", planA),
			row("plan (b) {Q3,Q5}", planB),
			row("our partitioner", ours),
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: plan (a) duplicates 8 B/s, plan (b) 3 B/s; measured %g and %g — Q3 and Q5 share no edge yet colocate in the optimum",
			g.EdgeCut(planA), g.EdgeCut(planB)))
	return t
}

// Figure3Delegation reproduces Figure 3: per-stream delegation
// processors versus a single receiving processor.
func Figure3Delegation() Table {
	const nProcs, nStreams, tuplesPerStream = 4, 8, 200
	run := func(single bool) (maxIngress int64, imbalance float64) {
		net := simnet.NewSim(nil)
		defer net.Close()
		catalog := stream.NewCatalog()
		var schemas []*stream.Schema
		for s := 0; s < nStreams; s++ {
			sc := stream.MustSchema(fmt.Sprintf("st%d", s),
				stream.Field{Name: "k", Type: stream.KindString, Card: 10},
				stream.Field{Name: "v", Type: stream.KindFloat, Lo: 0, Hi: 100},
			)
			if err := catalog.Register(sc); err != nil {
				panic(err)
			}
			schemas = append(schemas, sc)
		}
		en, err := entity.New("e", net, catalog, nProcs, miniFactory)
		if err != nil {
			panic(err)
		}
		defer en.Close()
		if single {
			for s := 0; s < nStreams; s++ {
				if err := en.ForceDelegation(fmt.Sprintf("st%d", s), 0); err != nil {
					panic(err)
				}
			}
		}
		// One query per stream so every stream has a consumer.
		for s := 0; s < nStreams; s++ {
			spec := engine.QuerySpec{
				ID:     fmt.Sprintf("q%d", s),
				Source: fmt.Sprintf("st%d", s),
				Filters: []engine.FilterSpec{
					{Field: "v", Lo: 0, Hi: 100, Cost: 1},
				},
			}
			if err := en.PlaceQuery(spec, 1); err != nil {
				panic(err)
			}
		}
		// An upstream node feeds each stream's delegation processor
		// over the metered transport (the inter-entity feed of Fig. 3).
		if err := net.Register("upstream", func(simnet.Message) {}); err != nil {
			panic(err)
		}
		for s := 0; s < nStreams; s++ {
			name := fmt.Sprintf("st%d", s)
			target := en.Delegation(name)
			var batch stream.Batch
			for i := 0; i < tuplesPerStream; i++ {
				batch = append(batch, stream.NewTuple(name, uint64(i),
					time.Unix(int64(i), 0).UTC(),
					stream.String("a"), stream.Float(float64(i%100))))
			}
			if err := net.Send("upstream", target, entity.KindIngest,
				stream.AppendBatch(nil, batch)); err != nil {
				panic(err)
			}
		}
		net.Quiesce(10 * time.Second)
		tr := net.Traffic()
		var loads []float64
		for p := 0; p < nProcs; p++ {
			in := tr.IngressBytes(simnet.NodeID(fmt.Sprintf("e/p%d", p)))
			loads = append(loads, float64(in))
			if in > maxIngress {
				maxIngress = in
			}
		}
		return maxIngress, querygraph.Imbalance(loads)
	}
	singleMax, singleImb := run(true)
	delegMax, delegImb := run(false)
	t := Table{
		ID:      "F3",
		Title:   "Figure 3 — stream delegation vs a single receiving processor",
		Columns: []string{"scheme", "max proc ingress B", "ingress imbalance"},
		Rows: [][]string{
			{"single receiver", d(singleMax), f(singleImb)},
			{"per-stream delegation", d(delegMax), f(delegImb)},
		},
	}
	t.Notes = append(t.Notes,
		"delegation spreads stream reception across the cluster instead of bottlenecking one processor")
	return t
}

// specWireSize returns the JSON-encoded size of a query spec — the cost
// of a query-level migration (E8 uses it).
func specWireSize(spec engine.QuerySpec) int {
	b, err := json.Marshal(spec)
	if err != nil {
		return 0
	}
	return len(b)
}
