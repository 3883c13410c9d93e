package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%d", tab.ID, row, col, len(tab.Rows))
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d)=%q not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func renderNonEmpty(t *testing.T, tab Table) {
	t.Helper()
	var sb strings.Builder
	tab.Fprint(&sb)
	if sb.Len() == 0 {
		t.Fatalf("%s rendered empty", tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s has no rows", tab.ID)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
		}
	}
}

func TestFigure1TwoLayer(t *testing.T) {
	tab := Figure1TwoLayer()
	renderNonEmpty(t, tab)
	byKey := map[string]string{}
	for _, row := range tab.Rows {
		byKey[row[0]] = row[1]
	}
	if byKey["queries allocated via coordinator tree"] != "40" {
		t.Errorf("queries = %s", byKey["queries allocated via coordinator tree"])
	}
	if byKey["dissemination tree max fanout"] > "3" {
		t.Errorf("fanout bound exceeded: %s", byKey["dissemination tree max fanout"])
	}
}

func TestTable1CooperationModes(t *testing.T) {
	tab := Table1CooperationModes()
	renderNonEmpty(t, tab)
	if len(tab.Rows) != 4 {
		t.Fatalf("modes = %d", len(tab.Rows))
	}
	// Source egress: non-cooperated transfer must be the worst.
	nonCoop := cell(t, tab, 0, 1)
	coop := cell(t, tab, 1, 1)
	if coop >= nonCoop {
		t.Errorf("cooperated egress %v not below source-direct %v", coop, nonCoop)
	}
	// Imbalance: load sharing must flatten it.
	isolated := cell(t, tab, 1, 3)
	shared := cell(t, tab, 2, 3)
	if shared >= isolated {
		t.Errorf("query-level sharing imbalance %v not below isolated %v", shared, isolated)
	}
}

func TestFigure2QueryGraph(t *testing.T) {
	tab := Figure2QueryGraph()
	renderNonEmpty(t, tab)
	// The paper's numbers, exactly.
	if got := cell(t, tab, 0, 2); got != 8 {
		t.Errorf("plan (a) cut = %v, want 8", got)
	}
	if got := cell(t, tab, 1, 2); got != 3 {
		t.Errorf("plan (b) cut = %v, want 3", got)
	}
	if got := cell(t, tab, 2, 2); got > 3 {
		t.Errorf("our cut = %v, want <= 3", got)
	}
	if !strings.Contains(tab.Rows[2][1], "Q5") {
		t.Errorf("partitioner side = %s, want Q3 with Q5", tab.Rows[2][1])
	}
}

func TestFigure3Delegation(t *testing.T) {
	tab := Figure3Delegation()
	renderNonEmpty(t, tab)
	single := cell(t, tab, 0, 1)
	deleg := cell(t, tab, 1, 1)
	if deleg*2 > single {
		t.Errorf("delegation max ingress %v not well below single receiver %v", deleg, single)
	}
	if imb := cell(t, tab, 1, 2); imb > 1.2 {
		t.Errorf("delegation ingress imbalance = %v", imb)
	}
}

func TestE1DisseminationScalability(t *testing.T) {
	tab := E1DisseminationScalability()
	renderNonEmpty(t, tab)
	// Row layout: for each N: source-direct, balanced, locality.
	// Source-direct egress at N=32 (row 9) must be ~8x N=4 (row 0).
	small := cell(t, tab, 0, 2)
	large := cell(t, tab, 9, 2)
	if large < 7*small {
		t.Errorf("source-direct egress did not scale with N: %v -> %v", small, large)
	}
	// Balanced egress must be flat (row 1 vs row 10).
	if b4, b32 := cell(t, tab, 1, 2), cell(t, tab, 10, 2); b32 > b4*1.01 {
		t.Errorf("balanced egress grew with N: %v -> %v", b4, b32)
	}
	// And at N=32 tree egress ≪ direct egress.
	if tree := cell(t, tab, 10, 2); tree*4 > large {
		t.Errorf("tree egress %v not ≪ direct %v at N=32", tree, large)
	}
}

func TestE2EarlyFiltering(t *testing.T) {
	tab := E2EarlyFiltering()
	renderNonEmpty(t, tab)
	// Savings decrease as selectivity grows.
	prev := 101.0
	for i := range tab.Rows {
		saved := cell(t, tab, i, 3)
		if saved > prev+1e-9 {
			t.Errorf("savings not monotone: row %d = %v after %v", i, saved, prev)
		}
		prev = saved
	}
	if s := cell(t, tab, 0, 3); s < 90 {
		t.Errorf("1%% selectivity saved only %v%%", s)
	}
	if s := cell(t, tab, len(tab.Rows)-1, 3); s > 1 {
		t.Errorf("full selectivity saved %v%%, want ~0", s)
	}
}

func TestE3CoordinatorTree(t *testing.T) {
	tab := E3CoordinatorTree()
	renderNonEmpty(t, tab)
	for i := range tab.Rows {
		treeWork := cell(t, tab, i, 4)
		flatWork := cell(t, tab, i, 5)
		n := cell(t, tab, i, 0)
		if flatWork != n {
			t.Errorf("row %d: flat work %v != N %v", i, flatWork, n)
		}
		if n >= 200 && treeWork*10 > flatWork {
			t.Errorf("row %d: tree work %v not ≪ flat %v", i, treeWork, flatWork)
		}
	}
}

func TestE4LoadDistribution(t *testing.T) {
	tab := E4LoadDistribution()
	renderNonEmpty(t, tab)
	// Rows come in groups of four: ours, multilevel, load-only,
	// similarity-only.
	for g := 0; g+3 < len(tab.Rows); g += 4 {
		ourCut := cell(t, tab, g, 2)
		mlCut := cell(t, tab, g+1, 2)
		loadCut := cell(t, tab, g+2, 2)
		if ourCut >= loadCut {
			t.Errorf("trial %d: our cut %v not below load-only %v", g/4, ourCut, loadCut)
		}
		if mlCut >= loadCut {
			t.Errorf("trial %d: multilevel cut %v not below load-only %v", g/4, mlCut, loadCut)
		}
		loadImb := cell(t, tab, g+2, 3)
		if loadImb > 1.3 {
			t.Errorf("trial %d: load-only imbalance %v", g/4, loadImb)
		}
	}
}

func TestE5AdaptiveRepartitioning(t *testing.T) {
	tab := E5AdaptiveRepartitioning()
	renderNonEmpty(t, tab)
	// Rows: scratch, hybrid, greedycut.
	scratchCut, hybridCut, greedyCut := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	scratchMig, hybridMig := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if scratchCut >= greedyCut {
		t.Errorf("scratch cut %v not below greedycut %v", scratchCut, greedyCut)
	}
	if hybridCut >= greedyCut {
		t.Errorf("hybrid cut %v not below greedycut %v", hybridCut, greedyCut)
	}
	if hybridMig >= scratchMig {
		t.Errorf("hybrid migrations %v not below scratch %v", hybridMig, scratchMig)
	}
}

func TestE6OperatorPlacement(t *testing.T) {
	tab := E6OperatorPlacement()
	renderNonEmpty(t, tab)
	prMax := cell(t, tab, 0, 1)
	for i := 1; i < 4; i++ {
		if baseline := cell(t, tab, i, 1); prMax >= baseline {
			t.Errorf("pr-aware PRmax %v not below %s %v", prMax, tab.Rows[i][0], baseline)
		}
	}
	// The limit sweep: limit=1 (row 4) must be far worse than limit=2
	// (row 5) because elephants saturate a single processor.
	if l1, l2 := cell(t, tab, 4, 1), cell(t, tab, 5, 1); l2*10 > l1 {
		t.Errorf("limit=1 PRmax %v not ≫ limit=2 %v", l1, l2)
	}
}

func TestE7AdaptiveOrdering(t *testing.T) {
	tab := E7AdaptiveOrdering()
	renderNonEmpty(t, tab)
	// Shifted rows save work; control row saves none and never adapts.
	for i := 0; i < 2; i++ {
		if saved := cell(t, tab, i, 3); saved <= 5 {
			t.Errorf("row %d saved only %v%%", i, saved)
		}
		if adapts := cell(t, tab, i, 4); adapts < 1 {
			t.Errorf("row %d adaptations = %v", i, adapts)
		}
	}
	control := len(tab.Rows) - 1
	if saved := cell(t, tab, control, 3); saved != 0 {
		t.Errorf("control saved %v%%, want 0", saved)
	}
	if adapts := cell(t, tab, control, 4); adapts != 0 {
		t.Errorf("control adapted %v times", adapts)
	}
}

func TestE8CouplingTradeoff(t *testing.T) {
	tab := E8CouplingTradeoff()
	renderNonEmpty(t, tab)
	// Query-level migration cost is flat; operator-level grows with the
	// window.
	loose0, tight0 := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	loose2, tight2 := cell(t, tab, 2, 1), cell(t, tab, 2, 2)
	if loose0 != loose2 {
		t.Errorf("query-level migration cost not flat: %v vs %v", loose0, loose2)
	}
	if tight2 < 50*tight0 {
		t.Errorf("operator-level cost did not grow with window: %v -> %v", tight0, tight2)
	}
	if tight0 < loose0 {
		t.Errorf("operator-level cost %v below spec size %v even at small windows", tight0, loose0)
	}
	// Fragment-level balancing beats whole-query balancing.
	wholeImb, fragImb := cell(t, tab, 3, 1), cell(t, tab, 3, 2)
	if fragImb >= wholeImb {
		t.Errorf("fragment balance %v not better than whole-query %v", fragImb, wholeImb)
	}
}

func TestE10InterestAggregation(t *testing.T) {
	tab := E10InterestAggregation()
	renderNonEmpty(t, tab)
	// Registration bytes grow with the cap; data bytes shrink; delivered
	// tuples are identical at every cap (widening safety).
	first, last := 0, len(tab.Rows)-1
	if reg0, regN := cell(t, tab, first, 1), cell(t, tab, last, 1); reg0 >= regN {
		t.Errorf("registration bytes not increasing: %v -> %v", reg0, regN)
	}
	if data0, dataN := cell(t, tab, first, 2), cell(t, tab, last, 2); data0 <= dataN {
		t.Errorf("data bytes not decreasing: %v -> %v", data0, dataN)
	}
	want := cell(t, tab, first, 3)
	for i := range tab.Rows {
		if got := cell(t, tab, i, 3); got != want {
			t.Errorf("row %d delivered %v, want %v (widening lost tuples)", i, got, want)
		}
	}
}

func TestE11TreeReorganization(t *testing.T) {
	tab := E11TreeReorganization()
	renderNonEmpty(t, tab)
	for i := range tab.Rows {
		if rewires := cell(t, tab, i, 1); rewires == 0 {
			t.Errorf("row %d: no rewires on a geometry-blind tree", i)
		}
		lenBefore, lenAfter := cell(t, tab, i, 2), cell(t, tab, i, 3)
		if lenAfter >= lenBefore {
			t.Errorf("row %d: edge length %v -> %v (no improvement)", i, lenBefore, lenAfter)
		}
		trBefore, trAfter := cell(t, tab, i, 4), cell(t, tab, i, 5)
		if trAfter >= trBefore {
			t.Errorf("row %d: transit cost %v -> %v (no improvement)", i, trBefore, trAfter)
		}
		if lost := cell(t, tab, i, 6); lost != 0 {
			t.Errorf("row %d: lost %v tuples during reorganization", i, lost)
		}
	}
}

func TestE12AdaptiveRouting(t *testing.T) {
	tab := E12AdaptiveRouting()
	renderNonEmpty(t, tab)
	// Results exact in both phases.
	for i := range tab.Rows {
		if got := cell(t, tab, i, 4); got != cell(t, tab, i, 1) {
			t.Errorf("row %d: results %v != tuples %v", i, got, cell(t, tab, i, 1))
		}
	}
	// After loading A, B serves the overwhelming majority.
	a2, b2 := cell(t, tab, 1, 2), cell(t, tab, 1, 3)
	if b2 <= a2*3 {
		t.Errorf("loaded phase: A=%v B=%v — routing did not adapt", a2, b2)
	}
}
