package entity

import (
	"fmt"
	"sort"

	"sspd/internal/engine"
	"sspd/internal/stream"
)

// StreamRateHint is the nominal arrival rate of one stream used when
// deriving placement models from declarative specs.
type StreamRateHint struct {
	TuplesPerSec  float64
	BytesPerTuple float64
}

// PlacementModel converts declarative query specs into the analytic
// placement model of Section 4.1: per-fragment costs from the spec's
// operator costs, selectivities estimated from the filters' data
// interests against the schema domains, and input rates scaled by the
// interest the dissemination layer already applied upstream (the entity
// receives only tuples matching its aggregate interest, so fragment 0
// sees the query's interest-selectivity share of the stream).
func PlacementModel(specs []engine.QuerySpec, catalog *stream.Catalog,
	rates map[string]StreamRateHint, nFrags int) ([]PlacementQuery, error) {
	out := make([]PlacementQuery, 0, len(specs))
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		sc, ok := catalog.Lookup(spec.Source)
		if !ok {
			return nil, fmt.Errorf("entity: plan: unknown stream %q", spec.Source)
		}
		rate, ok := rates[spec.Source]
		if !ok || rate.TuplesPerSec <= 0 {
			return nil, fmt.Errorf("entity: plan: no rate hint for %q", spec.Source)
		}
		frags := SplitSpec(spec, nFrags)
		pq := PlacementQuery{
			ID:        spec.ID,
			InputRate: rate.TuplesPerSec * deliveredFraction(spec, sc),
			TupleSize: rate.BytesPerTuple,
			// The spread of the runtime fragments is the distribution
			// limit the planner must respect.
			DistributionLimit: len(frags),
		}
		if pq.InputRate <= 0 {
			pq.InputRate = 0.1 // keep the model well-formed for dead queries
		}
		for _, frag := range frags {
			pq.Fragments = append(pq.Fragments, fragmentModel(frag, sc))
		}
		out = append(out, pq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// deliveredFraction estimates the share of the source stream the
// dissemination layer delivers to this query's entity for it: its own
// interest selectivity (the entity-level union may deliver more, but
// the per-query fragment chain starts from delegation fan-out, which
// feeds every tuple of the stream the entity received; the interest
// fraction is the useful lower bound the planner sizes for).
func deliveredFraction(spec engine.QuerySpec, sc *stream.Schema) float64 {
	sel := spec.Interest(spec.Source, sc).Selectivity(sc)
	if sel <= 0 {
		return 0.01
	}
	return sel
}

// fragmentModel derives one fragment's (cost, selectivity) from its
// steps: costs add; selectivities multiply, estimated per filter from
// the schema domains.
func fragmentModel(frag engine.QuerySpec, sc *stream.Schema) FragmentSpec {
	cost := 0.0
	sel := 1.0
	for _, f := range frag.Filters {
		c := f.Cost
		if c <= 0 {
			c = 1
		}
		cost += c
		sel *= filterSelectivity(f, sc)
	}
	if frag.Join != nil {
		c := frag.Join.Cost
		if c <= 0 {
			c = 3
		}
		cost += c
	}
	if frag.Distinct != nil {
		c := frag.Distinct.Cost
		if c <= 0 {
			c = 1
		}
		cost += c
		sel *= 0.5 // duplicates suppressed; a coarse prior
	}
	if frag.Agg != nil {
		c := frag.Agg.Cost
		if c <= 0 {
			c = 2
		}
		cost += c
	}
	if frag.TopK != nil {
		c := frag.TopK.Cost
		if c <= 0 {
			c = 2
		}
		cost += c
		sel *= 0.5
	}
	if cost == 0 {
		cost = 1
	}
	if sel <= 0 {
		sel = 0.001
	}
	return FragmentSpec{Cost: cost, Selectivity: sel}
}

// filterSelectivity estimates one filter step's pass fraction: the
// selectivity of the step's interest over the schema's declared domains
// (a field the schema lacks or gives no domain is neutral), floored so
// a product of them never reaches zero.
func filterSelectivity(f engine.FilterSpec, sc *stream.Schema) float64 {
	return max(f.Interest(sc.Name(), sc).Selectivity(sc), 0.001)
}

// PlanPlacement runs the PR-aware placer over declarative specs: the
// full bridge from the loosely-coupled layer's vocabulary (QuerySpec)
// to Section 4.1's optimization. It returns the assignment and its
// analytic evaluation.
func PlanPlacement(specs []engine.QuerySpec, catalog *stream.Catalog,
	rates map[string]StreamRateHint, procs []Proc, nFrags int) (Assignment, Evaluation, error) {
	queries, err := PlacementModel(specs, catalog, rates, nFrags)
	if err != nil {
		return nil, Evaluation{}, err
	}
	asg, err := PRPlacer{}.Place(procs, queries)
	if err != nil {
		return nil, Evaluation{}, err
	}
	return asg, Evaluate(procs, queries, asg, DefaultNetwork), nil
}
