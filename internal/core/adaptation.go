// The allocation round and the adaptation controller: the paper's
// adaptive repartitioning (Section 3.2.2). One round builds the query
// graph (measured rates and loads where the stats plane has them), runs
// the Hybrid repartitioner over the current assignment and turns the
// moves it proposes into a plan, one group per target entity. Rebalance
// executes every proposed move. The controller — AdaptOnce, a
// control-clock job when Options.EnableAdaptation is set — first weighs
// each move against the cost of actually performing it (serialized
// operator state plus the tuples that would need replaying) and executes
// only the moves whose gain clears the hysteresis threshold.
package core

import (
	"fmt"
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

// round is one allocation decision.
type round struct {
	// g is the query graph the round decided on, and rates the stream
	// rates its edges were weighted with.
	g     *querygraph.Graph
	rates map[string]StreamRate
	// ids are the entities, indexed by partition; cur is the assignment
	// with the kept moves applied.
	ids []string
	cur querygraph.Partitioning
	// plan maps a target entity to the queries to move there.
	plan map[string][]string
	// proposed counts the moves the repartitioner proposed.
	proposed int
}

// allocate runs one allocation round. keep sees each proposed move in
// vertex order, against the assignment the moves kept so far produce,
// and decides whether the plan takes it; nil keeps every move.
func (f *Federation) allocate(keep func(r *round, v querygraph.VertexID, to int) bool) (*round, error) {
	g, rates := f.queryGraph()
	cur, ids := f.Assignment()
	r := &round{g: g, rates: rates, ids: ids, cur: cur, plan: make(map[string][]string)}
	if len(ids) < 2 || g.NumVertices() == 0 {
		return r, nil
	}
	res, err := querygraph.HybridRepartitioner{}.Repartition(g, cur,
		querygraph.Options{K: len(ids), Epsilon: partitionEpsilon})
	if err != nil {
		return nil, err
	}
	for _, v := range g.Vertices() {
		to, ok := res.Assignment[v]
		from, placed := cur[v]
		if !ok || !placed || to == from || to < 0 || to >= len(ids) {
			continue
		}
		r.proposed++
		if keep != nil && !keep(r, v, to) {
			continue
		}
		r.plan[ids[to]] = append(r.plan[ids[to]], string(v))
		cur[v] = to
	}
	return r, nil
}

// AdaptOnce runs one controller decision round synchronously (the clock
// calls it every period when Options.EnableAdaptation is set; tests call
// it directly for determinism). A round adapts at both of the paper's
// grains: first the Adaptation Module's operator re-ordering sweep inside
// every entity (Section 4.2), then query migration between entities
// (Section 3.2.2). It returns how many queries were migrated; a move
// that fails stays where it was.
func (f *Federation) AdaptOnce() (int, error) {
	f.adaptOrdering()
	r, err := f.allocate(func(r *round, v querygraph.VertexID, to int) bool {
		// Gain rate: edge-cut reduction (bytes/sec kept local) plus
		// hottest-entity relief, both evaluated against the *evolving*
		// assignment so sequential moves don't double-count.
		gain := querygraph.MoveGain(r.g, r.cur, v, to) +
			querygraph.BalanceGain(r.g, r.cur, v, to, len(r.ids))
		return gain > f.adaptHysteresis*f.migrationCostRate(string(v), r.ids[r.cur[v]], r.rates)
	})
	if err != nil {
		return 0, err
	}
	moved, _ := f.execute(r.plan)
	f.adaptMoves.Add(int64(moved))
	if r.proposed > 0 {
		cur, _ := f.Assignment() // what holds now, failed moves included
		f.logger.Info("migration.plan", "", "adaptation round",
			"planned", fmt.Sprint(r.proposed), "moved", fmt.Sprint(moved),
			"skipped", fmt.Sprint(r.proposed-moved),
			"cut", fmt.Sprintf("%.1f", r.g.EdgeCut(cur)))
	}
	return moved, nil
}

// migrationCostRate estimates what moving a query off an entity costs,
// expressed as a byte rate commensurable with the query graph's edge
// weights: the serialized operator state plus the bytes expected to
// buffer during the handoff pause at the given stream rates (the ones
// the round's graph was built with), amortized over the adaptation
// horizon.
func (f *Federation) migrationCostRate(id, entityID string, rates map[string]StreamRate) float64 {
	f.mu.Lock()
	en := f.entities[entityID]
	fq := f.queries[id]
	f.mu.Unlock()
	if en == nil || fq == nil {
		return 0
	}
	stateBytes := 0
	if n, ok := en.ent.QueryStateBytes(id); ok {
		stateBytes = n
	}
	replayBytes := 0.0
	streams := fq.spec.Streams()
	slices.Sort(streams)
	for _, s := range slices.Compact(streams) { // a self-join buffers its stream once
		replayBytes += rates[s].BytesPerSec() * adaptPauseEstimate.Seconds()
	}
	return (float64(stateBytes) + replayBytes) / adaptAmortization.Seconds()
}
