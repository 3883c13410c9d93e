// The adaptation controller: the control-clock job that closes the
// paper's adaptive-repartitioning cycle (Section 3.2.2). Each period it
// feeds the *measured* query graph (stats-plane rates and loads) into
// the Hybrid repartitioner, weighs every proposed move against the cost
// of actually performing it — serialized operator state plus the tuples
// that would need replaying — and executes only the moves whose gain
// clears the hysteresis threshold, one live handoff per target entity.
package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"sspd/internal/querygraph"
)

// adaptAmortization is the window over which a migration's one-time
// byte cost is amortized to compare against a continuous gain rate: a
// move must pay for itself within this horizon.
const adaptAmortization = 30 * time.Second

// adaptPauseEstimate approximates the handoff pause when estimating how
// many in-flight bytes a migration will buffer and replay.
const adaptPauseEstimate = 200 * time.Millisecond

// AdaptOnce runs one controller decision round synchronously (the clock
// calls it every period when Options.EnableAdaptation is set; tests call
// it directly for determinism). A round adapts at both of the paper's
// grains: first the Adaptation Module's operator re-ordering sweep inside
// every entity (AdaptOrdering, Section 4.2), then query migration between
// entities (Section 3.2.2). It returns how many queries were migrated.
func (f *Federation) AdaptOnce() (int, error) {
	f.AdaptOrdering(0)
	g := f.MeasuredQueryGraph(0)
	old, ids := f.Assignment()
	if len(ids) < 2 || g.NumVertices() == 0 {
		return 0, nil
	}
	res, err := querygraph.HybridRepartitioner{}.Repartition(g, old,
		querygraph.Options{K: len(ids), Epsilon: partitionEpsilon})
	if err != nil {
		return 0, err
	}

	planned, moved, skipped := 0, 0, 0
	cur := old.Clone()
	accepted := make(map[string][]string) // target -> queries
	for _, v := range g.Vertices() {
		to, ok := res.Assignment[v]
		if !ok || to == cur[v] {
			continue
		}
		planned++
		// Gain rate: edge-cut reduction (bytes/sec kept local) plus
		// hottest-entity relief, both evaluated against the *evolving*
		// assignment so sequential moves don't double-count.
		gain := querygraph.MoveGain(g, cur, v, to) +
			querygraph.BalanceGain(g, cur, v, to, len(ids))
		cost := f.migrationCostRate(string(v), ids[cur[v]])
		if gain <= f.opts.AdaptationHysteresis*cost {
			skipped++
			continue
		}
		accepted[ids[to]] = append(accepted[ids[to]], string(v))
		cur[v] = to
	}
	// One handoff per target; a move that fails stays where it was.
	for _, target := range slices.Sorted(maps.Keys(accepted)) {
		n, _ := f.migrate(target, accepted[target])
		moved += n
		skipped += len(accepted[target]) - n
	}
	f.adaptMoves.Add(int64(moved))
	if planned > 0 {
		cur, _ = f.Assignment() // what holds now, failed moves included
		f.logger.Info("migration.plan", "", "adaptation round",
			"planned", fmt.Sprint(planned), "moved", fmt.Sprint(moved),
			"skipped", fmt.Sprint(skipped),
			"cut", fmt.Sprintf("%.1f", g.EdgeCut(cur)))
	}
	return moved, nil
}

// migrationCostRate estimates what moving a query costs, expressed as a
// byte rate commensurable with the repartitioner's edge weights: the
// serialized operator state plus the bytes expected to buffer during
// the handoff pause, amortized over the adaptation horizon.
func (f *Federation) migrationCostRate(id, entityID string) float64 {
	f.mu.Lock()
	en := f.entities[entityID]
	fq := f.queries[id]
	var rates map[string]StreamRate
	if fq != nil {
		rates = make(map[string]StreamRate)
		for _, s := range fq.spec.Streams() {
			rates[s] = f.rates[s]
		}
	}
	f.mu.Unlock()
	if en == nil || fq == nil {
		return 0
	}
	stateBytes := 0
	if n, ok := en.ent.QueryStateBytes(id); ok {
		stateBytes = n
	}
	replayBytes := 0.0
	for _, r := range rates {
		replayBytes += r.BytesPerSec() * adaptPauseEstimate.Seconds()
	}
	return (float64(stateBytes) + replayBytes) / adaptAmortization.Seconds()
}
