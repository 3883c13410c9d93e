package querygraph

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// drift mutates the graph like a live workload: load changes, some
// departures, some arrivals.
func drift(rng *rand.Rand, g *Graph, round int) {
	vs := g.Vertices()
	for _, v := range vs {
		if rng.Float64() < 0.3 {
			g.SetVertexWeight(v, 1+rng.Float64()*9)
		}
	}
	// ~20% departures.
	for _, v := range vs {
		if rng.Float64() < 0.2 {
			g.RemoveVertex(v)
		}
	}
	// ~20% arrivals, each heavily wired into one randomly chosen
	// neighborhood (arrivals join existing interest communities).
	n := len(vs) / 5
	cur := g.Vertices()
	for i := 0; i <= n; i++ {
		id := VertexID(fmt.Sprintf("new%03d-%d", round, i))
		g.AddVertex(id, 1+rng.Float64()*9)
		if len(cur) == 0 {
			continue
		}
		anchor := cur[rng.Intn(len(cur))]
		g.SetEdge(id, anchor, 3+rng.Float64()*7)
		g.Neighbors(anchor, func(nb VertexID, w float64) {
			if nb != id && rng.Float64() < 0.5 {
				g.SetEdge(id, nb, 1+rng.Float64()*5)
			}
		})
	}
}

func TestScratchRepartitionerBasics(t *testing.T) {
	g := Figure2Graph()
	old := Figure2PlanA()
	res, err := ScratchRepartitioner{}.Repartition(g, old, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut := g.EdgeCut(res.Assignment); cut > 3 {
		t.Errorf("scratch cut = %v, want <= 3", cut)
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations reported")
	}
	if res.Migrations <= 0 {
		t.Error("moving from plan (a) to optimal requires migrations")
	}
	if (ScratchRepartitioner{}).Name() != "scratch" {
		t.Error("name")
	}
}

func TestScratchLabelMatchingAvoidsRenumberMigrations(t *testing.T) {
	g := Figure2Graph()
	// Start from the optimal plan (b); a scratch run may find the same
	// partition with flipped labels — label matching must report ~0
	// migrations.
	old := Figure2PlanB()
	res, err := ScratchRepartitioner{}.Repartition(g, old, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("re-running scratch on an optimal assignment migrated %d queries", res.Migrations)
	}
}

func TestGreedyCutRestoresBalance(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.AddVertex(VertexID(fmt.Sprintf("v%d", i)), 1)
	}
	// Everything piled on partition 0.
	old := make(Partitioning)
	for _, v := range g.Vertices() {
		old[v] = 0
	}
	res, err := GreedyCutRepartitioner{}.Repartition(g, old, Options{K: 2, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	weights := g.PartitionWeights(res.Assignment, 2)
	if Imbalance(weights) > 1.2+1e-9 {
		t.Errorf("greedycut left imbalance %v (weights %v)", Imbalance(weights), weights)
	}
	if res.Migrations == 0 {
		t.Error("rebalancing requires migrations")
	}
	if (GreedyCutRepartitioner{}).Name() != "greedycut" {
		t.Error("name")
	}
	if _, err := (GreedyCutRepartitioner{}).Repartition(g, old, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestHybridBalancesAndKeepsCutLow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 60, 4)
	k := 4
	old, err := Partition(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	// Drift the workload hard.
	for round := 0; round < 3; round++ {
		drift(rng, g, round)
	}
	res, err := HybridRepartitioner{}.Repartition(g, old, Options{K: k, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	assertValidPartitioning(t, g, res.Assignment, k, 0.2)
	if (HybridRepartitioner{}).Name() != "hybrid" {
		t.Error("name")
	}
	if _, err := (HybridRepartitioner{}).Repartition(g, old, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestRepartitionerTradeoff(t *testing.T) {
	// The paper's spectrum: scratch gets the best cut at the highest
	// migration/effort cost; greedycut is cheapest with the worst cut;
	// hybrid sits in between on cut and keeps migrations closer to
	// greedycut than scratch.
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 80, 4)
	k := 4
	assign, err := Partition(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	var cutScratch, cutGreedy, cutHybrid float64
	var migScratch, migGreedy, migHybrid int
	var evalScratch, evalGreedy int
	rounds := 6
	gs, gg, gh := g.Clone(), g.Clone(), g.Clone()
	as, ag, ah := maps.Clone(assign), maps.Clone(assign), maps.Clone(assign)
	rngS, rngG, rngH := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		drift(rngS, gs, round)
		drift(rngG, gg, round)
		drift(rngH, gh, round)
		rs, err := ScratchRepartitioner{}.Repartition(gs, as, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		rg, err := GreedyCutRepartitioner{}.Repartition(gg, ag, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		rh, err := HybridRepartitioner{}.Repartition(gh, ah, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		as, ag, ah = rs.Assignment, rg.Assignment, rh.Assignment
		cutScratch += gs.EdgeCut(as)
		cutGreedy += gg.EdgeCut(ag)
		cutHybrid += gh.EdgeCut(ah)
		migScratch += rs.Migrations
		migGreedy += rg.Migrations
		migHybrid += rh.Migrations
		evalScratch += rs.Evaluations
		evalGreedy += rg.Evaluations
	}
	if cutScratch >= cutGreedy {
		t.Errorf("scratch cut %v not better than greedycut %v", cutScratch, cutGreedy)
	}
	if cutHybrid >= cutGreedy {
		t.Errorf("hybrid cut %v not better than greedycut %v", cutHybrid, cutGreedy)
	}
	if migGreedy >= migScratch {
		t.Errorf("greedycut migrations %d not fewer than scratch %d", migGreedy, migScratch)
	}
	if migHybrid >= migScratch {
		t.Errorf("hybrid migrations %d not fewer than scratch %d", migHybrid, migScratch)
	}
	if evalGreedy >= evalScratch {
		t.Errorf("greedycut effort %d not cheaper than scratch %d", evalGreedy, evalScratch)
	}
}

func TestCarryForwardPlacesArrivals(t *testing.T) {
	g := New()
	g.AddVertex("old1", 5)
	g.AddVertex("old2", 5)
	g.AddVertex("new1", 1)
	old := Partitioning{"old1": 0, "old2": 1, "ghost": 0}
	p := carryForward(g, old, 2)
	if p["old1"] != 0 || p["old2"] != 1 {
		t.Error("survivors reassigned")
	}
	if _, ok := p["ghost"]; ok {
		t.Error("departed vertex kept")
	}
	if part, ok := p["new1"]; !ok || part < 0 || part > 1 {
		t.Error("arrival unplaced")
	}
}

func TestCarryForwardByAffinity(t *testing.T) {
	g := New()
	g.AddVertex("a", 1)
	g.AddVertex("b", 1)
	g.AddVertex("new", 0.4)
	g.SetEdge("new", "b", 10)
	old := Partitioning{"a": 0, "b": 1}
	p := carryForwardByAffinity(g, old, 2)
	if p["new"] != 1 {
		t.Errorf("arrival placed on %d, want 1 (affinity with b)", p["new"])
	}
}

func TestMatchLabelsOutOfRange(t *testing.T) {
	old := Partitioning{"a": 0}
	fresh := Partitioning{"a": 7} // out of range survives untouched
	out := matchLabels(old, fresh, 2)
	if out["a"] != 7 {
		t.Errorf("out-of-range label remapped to %d", out["a"])
	}
}
