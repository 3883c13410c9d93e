// A compiled query and its two ways of running (DESIGN.md §13): Feed
// pushes one tuple through the operators a row at a time (MiniEngine,
// join queries), runBatch pushes one columnar batch through them a stage
// at a time (the shard engine) — the same operator instances either
// way. In a batch each filter scans columns and shrinks the selection
// vector; the surviving rows are gathered once into a buffer the Query
// reuses and the stateful tail (distinct/aggregate/top-k) runs over
// them, each operator's ProcessBatch consuming the previous stage's
// batch: one virtual dispatch and one stats lock per (operator, batch).
// Results leave the way tuples came in, a batch at a time: emit is
// called once per run — per batch in runTail, per post-join row in
// runRow — and the results are lent for the length of the call
// (Processor point 6). A filter or distinct result is the very row the
// query was fed; an aggregate or top-k result of a batch run has its
// Values in a slab the operator reuses from run to run, poisoned once
// emit returns under -tags arenapoison (resultSlab). So no query but a
// join — whose window keeps rows — reads a row it was fed once a run
// has returned, and an engine may release a lent batch's copy then.
//
// Nothing here reads the clock: the shard stamps the boundaries between
// the queries of a ring item, one clock read per (query, batch), and
// times each whole run between two of them (lint-obslog enforces the
// rule for this file, the evaluators' and the tail's).
package engine

import (
	"fmt"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

// Query is a compiled QuerySpec: the concrete operator pipeline one
// engine executes. A Query is single-threaded; its owning engine
// serializes Feed calls.
type Query struct {
	spec QuerySpec
	// join, when present, heads the pipeline. Port 0 consumes Source,
	// port 1 consumes Join.Stream.
	join *operator.WindowJoin
	// filters is the commutable head of the unary pipeline after the
	// (optional) join, in execution order — the only list of them:
	// ReorderFilters permutes it and both Feed and runBatch read it.
	filters []*operator.Filter
	// tail is the non-commutable rest (distinct/aggregate/top-k), in
	// execution order.
	tail []tailOp
	// buf is the batch tail's pair of row buffers: stage i reads buf[i%2]
	// and appends to the other. They are reused from batch to batch —
	// rows are copied in, emit borrows the last stage's — and so keep the
	// last batch's rows reachable until the next one.
	buf [2][]stream.Tuple
	// slab is the tail's last stage when it lends its results from a
	// slab it reuses, else nil.
	slab resultSlab
	// emit receives each run's results (BatchRegistrar has the rule).
	emit func(stream.Batch)
}

// tailOp is a stateful tail operator: ProcessBatch consumes rows in
// order and appends their results to dst, returning it.
type tailOp interface {
	operator.Operator
	ProcessBatch(rows, dst []stream.Tuple) []stream.Tuple
}

// resultSlab is a tail operator whose batch run lends its results'
// Values from a slab it reuses (Aggregate, TopK). ReleaseResults ends the
// loan once emit has returned.
type resultSlab interface {
	ReleaseResults()
}

// Compile turns a spec into a runnable Query against the global schema
// catalog. emit receives the query's results, once per run that has any,
// on the terms BatchRegistrar states; a nil emit discards results
// (useful in benchmarks).
func Compile(spec QuerySpec, catalog *stream.Catalog, emit func(stream.Batch)) (*Query, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	src, ok := catalog.Lookup(spec.Source)
	if !ok {
		return nil, fmt.Errorf("engine: query %s: unknown stream %q", spec.ID, spec.Source)
	}
	q := &Query{spec: spec, emit: emit}

	cur := src
	if spec.Join != nil {
		right, ok := catalog.Lookup(spec.Join.Stream)
		if !ok {
			return nil, fmt.Errorf("engine: query %s: unknown join stream %q", spec.ID, spec.Join.Stream)
		}
		j, err := operator.NewWindowJoin(spec.ID+"/join", src, right,
			spec.Join.LeftKey, spec.Join.RightKey, defaultWindow(spec.Join.Window), spec.Join.Cost)
		if err != nil {
			return nil, err
		}
		q.join = j
		cur = j.OutSchema()
	}

	for i, f := range spec.Filters {
		op, err := compileFilter(fmt.Sprintf("%s/f%d", spec.ID, i), f, cur)
		if err != nil {
			return nil, err
		}
		q.filters = append(q.filters, op)
	}

	if spec.Distinct != nil {
		field, err := resolveField(spec.ID+"/distinct", spec.Distinct.Field, cur)
		if err != nil {
			return nil, err
		}
		d, err := operator.NewDistinct(spec.ID+"/distinct", cur, field,
			defaultWindow(spec.Distinct.Window), spec.Distinct.Cost)
		if err != nil {
			return nil, err
		}
		q.tail = append(q.tail, d)
	}
	if spec.Agg != nil {
		a, err := operator.NewAggregate(spec.ID+"/agg", cur, spec.Agg.Fn,
			spec.Agg.ValueField, spec.Agg.GroupField, defaultWindow(spec.Agg.Window), spec.Agg.Cost)
		if err != nil {
			return nil, err
		}
		q.tail = append(q.tail, a)
	}
	if spec.TopK != nil {
		vf, err := resolveField(spec.ID+"/topk", spec.TopK.ValueField, cur)
		if err != nil {
			return nil, err
		}
		kf, err := resolveField(spec.ID+"/topk", spec.TopK.KeyField, cur)
		if err != nil {
			return nil, err
		}
		tk, err := operator.NewTopK(spec.ID+"/topk", cur, spec.TopK.K, vf, kf,
			defaultWindow(spec.TopK.Window), spec.TopK.Cost)
		if err != nil {
			return nil, err
		}
		q.tail = append(q.tail, tk)
	}
	if n := len(q.tail); n > 0 {
		q.slab, _ = q.tail[n-1].(resultSlab)
	}
	return q, nil
}

// resolveField maps a spec field name onto the current schema, trying
// the join prefixes for post-join schemas (a source-stream field is
// l_-prefixed after a join). It is the only place they are tried.
func resolveField(op, field string, sc *stream.Schema) (string, error) {
	if _, ok := sc.FieldIndex(field); ok {
		return field, nil
	}
	for _, pre := range []string{"l_", "r_"} {
		if _, ok := sc.FieldIndex(pre + field); ok {
			return pre + field, nil
		}
	}
	return "", fmt.Errorf("engine: %s: schema %s has no field %q", op, sc.Name(), field)
}

// compileFilter builds the filter operator for one step against the
// schema at that point in the pipeline: the step's field names are
// resolved first — a name the schema lacks is an error here, never a
// filter that matches nothing — and the step's interest under the
// resolved names is the predicate.
func compileFilter(name string, f FilterSpec, sc *stream.Schema) (*operator.Filter, error) {
	var err error
	if f.Field != "" {
		if f.Field, err = resolveField(name, f.Field, sc); err != nil {
			return nil, err
		}
	}
	if f.KeyField != "" {
		if f.KeyField, err = resolveField(name, f.KeyField, sc); err != nil {
			return nil, err
		}
	}
	return operator.NewFilter(name, sc, f.Interest(sc.Name(), sc), f.Cost)
}

// keepsRows reports whether the query keeps rows it was fed past the run
// that read them: a join's window does; nothing else keeps a row, so an
// engine may release a lent batch's copy once every query it fed has
// run it (GroupFeeder.FeedGroupLent).
func (q *Query) keepsRows() bool { return q.join != nil }

// Spec returns the spec the query was compiled from.
func (q *Query) Spec() QuerySpec { return q.spec }

// ID returns the query's federation-wide identifier.
func (q *Query) ID() string { return q.spec.ID }

// Operators returns the pipeline's operators in execution order,
// including the join when present.
func (q *Query) Operators() []operator.Operator {
	out := make([]operator.Operator, 0, 1+len(q.filters)+len(q.tail))
	if q.join != nil {
		out = append(out, q.join)
	}
	for _, f := range q.filters {
		out = append(out, f)
	}
	for _, op := range q.tail {
		out = append(out, op)
	}
	return out
}

// Feed pushes one tuple from the named input stream through the
// pipeline a row at a time, emitting once per post-join row that has
// results. It returns the number of result tuples.
func (q *Query) Feed(streamName string, t stream.Tuple) int {
	var work []stream.Tuple
	switch {
	case q.join != nil:
		port := -1
		if streamName == q.spec.Source {
			port = 0
		} else if streamName == q.spec.Join.Stream {
			port = 1
		}
		if port < 0 {
			return 0
		}
		work = q.join.Process(port, t)
	case streamName == q.spec.Source:
		work = []stream.Tuple{t}
	default:
		return 0
	}
	results := 0
	for _, w := range work {
		results += q.runRow(w)
	}
	return results
}

// runRow pushes one post-join tuple through the filters and the tail a
// row at a time — each operator's Process, the reference the batch run
// is held to — and emits what comes out as one batch.
func (q *Query) runRow(t stream.Tuple) int {
	for _, f := range q.filters {
		if len(f.Process(0, t)) == 0 {
			return 0
		}
	}
	cur := []stream.Tuple{t}
	for i := 0; i < len(q.tail) && len(cur) > 0; i++ {
		var next []stream.Tuple
		for _, c := range cur {
			next = append(next, q.tail[i].Process(0, c)...)
		}
		cur = next
	}
	if len(cur) > 0 && q.emit != nil {
		q.emit(cur)
	}
	return len(cur)
}

// runBatch pushes one columnar batch of the source stream through the
// pipeline: each filter shrinks the selection vector (recording the
// batch into its Stats as one sample), then the survivors are gathered
// and go through the stateful tail as one batch. It returns the number
// of result tuples. Join queries have no batch run; they Feed.
func (q *Query) runBatch(cb *stream.ColBatch) int {
	for _, f := range q.filters {
		if cb.Len() == 0 {
			return 0
		}
		f.ProcessBatch(cb)
	}
	q.buf[0] = cb.Gather(q.buf[0][:0])
	return q.runTail()
}

// runTail drives the rows in buf[0] through the tail a batch at a time
// and emits what comes out of the last stage, in order, in one call. It
// returns the number of result tuples.
func (q *Query) runTail() int {
	cur := 0
	for _, op := range q.tail {
		if len(q.buf[cur]) == 0 {
			return 0
		}
		q.buf[1-cur] = op.ProcessBatch(q.buf[cur], q.buf[1-cur][:0])
		cur = 1 - cur
	}
	out := q.buf[cur]
	if len(out) > 0 && q.emit != nil {
		q.emit(out)
	}
	if q.slab != nil {
		q.slab.ReleaseResults()
	}
	return len(out)
}

// ReorderFilters permutes the filter sub-chain according to perm, a
// permutation of the current filter indexes (aggregates stay terminal,
// joins stay at the head). It is the hook the Adaptation Module uses to
// change operator ordering at runtime.
func (q *Query) ReorderFilters(perm []int) error {
	if len(perm) != len(q.filters) {
		return fmt.Errorf("engine: query %s: permutation length %d, want %d", q.spec.ID, len(perm), len(q.filters))
	}
	seen := make([]bool, len(perm))
	reordered := make([]*operator.Filter, 0, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("engine: query %s: invalid permutation %v", q.spec.ID, perm)
		}
		seen[p] = true
		reordered = append(reordered, q.filters[p])
	}
	q.filters = reordered
	return nil
}

// FilterSelectivities reports the observed selectivity of each filter in
// current execution order.
func (q *Query) FilterSelectivities() []float64 {
	out := make([]float64, len(q.filters))
	for i, f := range q.filters {
		out[i] = f.Stats().Selectivity()
	}
	return out
}

// FilterCosts reports each filter's abstract per-tuple cost in current
// execution order.
func (q *Query) FilterCosts() []float64 {
	out := make([]float64, len(q.filters))
	for i, f := range q.filters {
		out[i] = f.Cost()
	}
	return out
}
