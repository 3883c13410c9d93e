// Package engine provides the per-entity continuous-query processing
// engines of sspd. The paper's inter-entity layer is deliberately
// engine-agnostic: entities exchange declarative QuerySpecs (never live
// operators), and each entity compiles specs with whatever engine it
// runs. The package supplies the Processor contract and two engines that
// honour it: the shard-per-core ShardEngine, which engine.New builds and
// entities host by default, and the deliberately different synchronous
// MiniEngine, the oracle the differential tests hold it to — so
// heterogeneous federations are actually exercised.
package engine

import (
	"fmt"
	"time"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

// FilterSpec declares one conjunctive predicate step of a query: a
// numeric range and/or a key-set constraint on fields of the current
// schema. Filter steps commute, which is what makes the Adaptation
// Module's operator re-ordering (Section 4.2) legal.
type FilterSpec struct {
	// Field is the numeric field constrained to [Lo, Hi]. Empty means
	// no range constraint.
	Field  string
	Lo, Hi float64
	// KeyField/Keys constrain a string field to a set of values. Empty
	// KeyField means no key constraint.
	KeyField string
	Keys     []string
	// Cost is the abstract per-tuple evaluation cost (default 1).
	Cost float64
}

func (f FilterSpec) validate(which int) error {
	if f.Field == "" && f.KeyField == "" {
		return fmt.Errorf("engine: filter %d constrains nothing", which)
	}
	if f.Field != "" && f.Hi < f.Lo {
		return fmt.Errorf("engine: filter %d has empty range [%g,%g]", which, f.Lo, f.Hi)
	}
	if f.KeyField != "" && len(f.Keys) == 0 {
		return fmt.Errorf("engine: filter %d has key field but no keys", which)
	}
	return nil
}

// Interest is the one translation from a filter step to a data
// interest: the step's constraints on the fields sc declares, by the
// names the step uses. A constraint on a field sc lacks is left out,
// which widens the interest and is therefore safe for early filtering
// and neutral in estimates. The
// engine resolves a step's names against the pipeline's schema first
// (resolveField), so the filter it compiles from this loses nothing.
// (No schema declares "", so an absent constraint is left out too.)
func (f FilterSpec) Interest(streamName string, sc *stream.Schema) stream.Interest {
	in := stream.NewInterest(streamName)
	if _, ok := sc.FieldIndex(f.Field); ok {
		in = in.WithRange(f.Field, f.Lo, f.Hi)
	}
	if _, ok := sc.FieldIndex(f.KeyField); ok {
		in = in.WithKeys(f.KeyField, f.Keys...)
	}
	return in
}

// AggSpec declares an optional terminal windowed aggregate.
type AggSpec struct {
	Fn         operator.AggFunc
	ValueField string
	GroupField string
	Window     stream.WindowSpec
	Cost       float64
}

// DistinctSpec declares an optional windowed de-duplication step,
// applied after the filters.
type DistinctSpec struct {
	// Field is the key whose duplicates are suppressed.
	Field  string
	Window stream.WindowSpec
	Cost   float64
}

// TopKSpec declares an optional terminal top-k ranking: keys ranked by
// the max of ValueField within the window; mutually exclusive with Agg.
type TopKSpec struct {
	K          int
	ValueField string
	KeyField   string
	Window     stream.WindowSpec
	Cost       float64
}

// JoinSpec declares an optional two-way window join at the head of the
// query.
type JoinSpec struct {
	Stream   string // the second input stream
	LeftKey  string // key field in the primary stream
	RightKey string // key field in the joined stream
	Window   stream.WindowSpec
	Cost     float64
}

// QuerySpec is the declarative, engine-independent description of one
// continuous query — the unit of inter-entity query distribution. It
// describes a pipeline:
//
//	Source [⋈ Join.Stream] → Filters... → [Distinct] → [Aggregate | TopK] → results
//
// Every engine implementation compiles a QuerySpec into its own runtime
// form; specs themselves never contain engine state, which is precisely
// why query-level load sharing works across heterogeneous engines while
// operator-level sharing does not (Section 2 of the paper).
type QuerySpec struct {
	// ID uniquely identifies the query across the federation.
	ID string
	// Source is the primary input stream.
	Source string
	// Join optionally joins Source with a second stream.
	Join *JoinSpec
	// Filters apply in order after the join (or directly to Source).
	Filters []FilterSpec
	// Distinct optionally de-duplicates after the filters.
	Distinct *DistinctSpec
	// Agg optionally terminates the pipeline with a windowed aggregate.
	Agg *AggSpec
	// TopK optionally terminates the pipeline with a top-k ranking
	// (mutually exclusive with Agg).
	TopK *TopKSpec
	// Load is the query's estimated processing load in abstract
	// cost-units/second — the vertex weight in the query graph. When 0
	// it is derived from the filter/join/agg costs.
	Load float64
}

// Validate checks internal consistency without a catalog (schema checks
// happen at compile time).
func (q QuerySpec) Validate() error {
	if q.ID == "" {
		return fmt.Errorf("engine: query needs an ID")
	}
	if q.Source == "" {
		return fmt.Errorf("engine: query %s needs a source stream", q.ID)
	}
	if q.Join != nil {
		if q.Join.Stream == "" || q.Join.LeftKey == "" || q.Join.RightKey == "" {
			return fmt.Errorf("engine: query %s join is underspecified", q.ID)
		}
	}
	for i, f := range q.Filters {
		if err := f.validate(i); err != nil {
			return fmt.Errorf("engine: query %s: %w", q.ID, err)
		}
	}
	if q.Agg != nil && q.Agg.Fn != operator.AggCount && q.Agg.ValueField == "" {
		return fmt.Errorf("engine: query %s aggregate needs a value field", q.ID)
	}
	if q.Distinct != nil && q.Distinct.Field == "" {
		return fmt.Errorf("engine: query %s distinct needs a key field", q.ID)
	}
	if q.TopK != nil {
		if q.Agg != nil {
			return fmt.Errorf("engine: query %s cannot have both aggregate and top-k", q.ID)
		}
		if q.TopK.K < 1 || q.TopK.ValueField == "" || q.TopK.KeyField == "" {
			return fmt.Errorf("engine: query %s top-k is underspecified", q.ID)
		}
	}
	return nil
}

// Streams returns the input streams the query consumes.
func (q QuerySpec) Streams() []string {
	out := []string{q.Source}
	if q.Join != nil {
		out = append(out, q.Join.Stream)
	}
	return out
}

// SealsResults reports whether the query, as an engine compiles it, is
// done with its input rows once it has run them: it has a stateful tail,
// whose last stage gives every result Values of its own and whose
// windows keep slots, not rows, and no join, whose window keeps rows. A
// query that does not seal emits (stateless filters) or keeps (a join)
// the very rows it was fed. A leased batch (GroupFeeder.FeedGroupLease)
// is released early only for queries that seal.
func (q QuerySpec) SealsResults() bool {
	return q.Join == nil && (q.Distinct != nil || q.Agg != nil || q.TopK != nil)
}

// Interest derives the query's data interest in the named input stream:
// the conjunction of its filter steps' interests in that stream
// (FilterSpec.Interest). Two steps on one field intersect, so the
// registered interest is as narrow as the query; steps that exclude each
// other leave an empty range or key set, which matches nothing. This is
// what the entity registers up the dissemination tree for early
// filtering, and what the delegation fan-out routes a remote processor's
// rows by. A join query's interest leaves both inputs unconstrained: its
// filters run after the join, whose window admits every row of either
// input, and a row a filter rejects still evicts older rows from a count
// window, so keeping it out would change which partners remain.
func (q QuerySpec) Interest(streamName string, sc *stream.Schema) stream.Interest {
	in := stream.NewInterest(streamName)
	if q.Join != nil {
		return in
	}
	for _, f := range q.Filters {
		in = in.Intersect(f.Interest(streamName, sc))
	}
	return in
}

// EstimatedLoad returns the declared Load or, when absent, the summed
// per-step costs as a proxy.
func (q QuerySpec) EstimatedLoad() float64 {
	if q.Load > 0 {
		return q.Load
	}
	load := 0.0
	if q.Join != nil {
		c := q.Join.Cost
		if c <= 0 {
			c = 3
		}
		load += c
	}
	for _, f := range q.Filters {
		c := f.Cost
		if c <= 0 {
			c = 1
		}
		load += c
	}
	if q.Distinct != nil {
		c := q.Distinct.Cost
		if c <= 0 {
			c = 1
		}
		load += c
	}
	if q.Agg != nil {
		c := q.Agg.Cost
		if c <= 0 {
			c = 2
		}
		load += c
	}
	if q.TopK != nil {
		c := q.TopK.Cost
		if c <= 0 {
			c = 2
		}
		load += c
	}
	if load == 0 {
		load = 1
	}
	return load
}

// defaultWindow substitutes a sane window when a spec leaves it zero.
func defaultWindow(w stream.WindowSpec) stream.WindowSpec {
	if w.Kind == stream.WindowByCount && w.Count <= 0 {
		if w.Duration > 0 {
			return stream.TimeWindow(w.Duration)
		}
		return stream.TimeWindow(time.Minute)
	}
	return w
}
