package engine

import "sort"

// OptimalFilterOrder returns the permutation of commutable filters that
// minimizes expected per-tuple work: ascending rank cost/(1 -
// selectivity), the classical ordering for independent selection
// predicates. Filters with selectivity >= 1 (non-reducing) sort last by
// cost.
func OptimalFilterOrder(costs, sels []float64) []int {
	n := len(costs)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rank := func(i int) float64 {
		s := sels[i]
		if s >= 1 {
			return float64(1e18) + costs[i]
		}
		return costs[i] / (1 - s)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return rank(perm[a]) < rank(perm[b])
	})
	return perm
}

// ExpectedFilterCost returns the expected per-tuple work of evaluating
// the filters in the order given by perm: stage i's cost is paid by the
// fraction of tuples surviving stages 0..i-1.
func ExpectedFilterCost(costs, sels []float64, perm []int) float64 {
	total, surviving := 0.0, 1.0
	for _, i := range perm {
		total += surviving * costs[i]
		surviving *= sels[i]
	}
	return total
}

// MaybeReorder applies the optimal filter order to q when it improves
// the expected per-tuple cost by at least minGain (relative). It returns
// whether a reorder happened. The caller must own q (no concurrent
// Feed). It is the single source of truth for the reorder decision:
// both engines' AdaptOrdering and the entity-level AM delegate here.
func MaybeReorder(q *Query, minGain float64) bool {
	sels := q.FilterSelectivities()
	costs := q.FilterCosts()
	if len(sels) < 2 {
		return false
	}
	current := make([]int, len(sels))
	for i := range current {
		current[i] = i
	}
	best := OptimalFilterOrder(costs, sels)
	curCost := ExpectedFilterCost(costs, sels, current)
	bestCost := ExpectedFilterCost(costs, sels, best)
	if bestCost >= curCost*(1-minGain) {
		return false
	}
	return q.ReorderFilters(best) == nil
}

// Adapter is the optional engine capability of re-ordering its queries'
// commutable operators from observed statistics — the engine-side hook
// of the paper's Adaptation Module. AdaptOrdering returns the number of
// queries whose plan changed. minGain <= 0 defaults to 5%.
type Adapter interface {
	AdaptOrdering(minGain float64) int
}

func normalizeGain(minGain float64) float64 {
	if minGain <= 0 {
		return 0.05
	}
	return minGain
}

// AdaptOrdering implements Adapter for MiniEngine: queries feed under
// the engine lock, so reordering under the same lock is safe.
func (m *MiniEngine) AdaptOrdering(minGain float64) int {
	minGain = normalizeGain(minGain)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, q := range m.queries {
		if MaybeReorder(q, minGain) {
			n++
		}
	}
	return n
}
