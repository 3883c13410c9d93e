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
	// chain is the ordered unary pipeline after the (optional) join.
	chain []operator.Operator
	// tail is the non-commutable end of chain (distinct/aggregate/
	// top-k) by its batch entry; the filters before it may reorder.
	tail []tailOp
	// buf is the batch tail's pair of row buffers: stage i reads buf[i%2]
	// and appends to the other. They are reused from batch to batch —
	// rows are copied in, results are copied out by emit — and so keep
	// the last batch's rows reachable until the next one.
	buf [2][]stream.Tuple
	// emit receives result tuples.
	emit func(stream.Tuple)
}

// tailOp is a stateful tail operator: ProcessBatch consumes rows in
// order and appends their results to dst, returning it.
type tailOp interface {
	ProcessBatch(rows, dst []stream.Tuple) []stream.Tuple
}

// Compile turns a spec into a runnable Query against the global schema
// catalog. emit receives the query's result tuples; a nil emit discards
// results (useful in benchmarks).
func Compile(spec QuerySpec, catalog *stream.Catalog, emit func(stream.Tuple)) (*Query, error) {
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
		q.chain = append(q.chain, op)
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
		q.chain = append(q.chain, d)
		q.tail = append(q.tail, d)
	}
	if spec.Agg != nil {
		a, err := operator.NewAggregate(spec.ID+"/agg", cur, spec.Agg.Fn,
			spec.Agg.ValueField, spec.Agg.GroupField, defaultWindow(spec.Agg.Window), spec.Agg.Cost)
		if err != nil {
			return nil, err
		}
		q.chain = append(q.chain, a)
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
		q.chain = append(q.chain, tk)
		q.tail = append(q.tail, tk)
	}
	return q, nil
}

// resolveField maps a spec field name onto the current schema, trying
// the join prefixes for post-join schemas.
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
// schema at that point in the pipeline. A field the schema lacks (e.g. a
// source-stream field post-join where fields are l_-prefixed) is resolved
// with the join prefixes before failing.
func compileFilter(name string, f FilterSpec, sc *stream.Schema) (operator.Operator, error) {
	resolve := func(field string) (string, error) {
		if field == "" {
			return "", nil
		}
		if _, ok := sc.FieldIndex(field); ok {
			return field, nil
		}
		for _, pre := range []string{"l_", "r_"} {
			if _, ok := sc.FieldIndex(pre + field); ok {
				return pre + field, nil
			}
		}
		return "", fmt.Errorf("engine: %s: schema %s has no field %q", name, sc.Name(), field)
	}
	rangeField, err := resolve(f.Field)
	if err != nil {
		return nil, err
	}
	keyField, err := resolve(f.KeyField)
	if err != nil {
		return nil, err
	}
	var rIdx, kIdx = -1, -1
	if rangeField != "" {
		rIdx, _ = sc.FieldIndex(rangeField)
	}
	if keyField != "" {
		kIdx, _ = sc.FieldIndex(keyField)
	}
	keys := make(map[string]bool, len(f.Keys))
	for _, k := range f.Keys {
		keys[k] = true
	}
	lo, hi := f.Lo, f.Hi
	pred := func(t stream.Tuple) bool {
		if rIdx >= 0 {
			v := t.Value(rIdx).AsFloat()
			if v < lo || v > hi {
				return false
			}
		}
		if kIdx >= 0 && !keys[t.Value(kIdx).AsString()] {
			return false
		}
		return true
	}
	return operator.NewFilter(name, sc, pred, f.Cost)
}

// Spec returns the spec the query was compiled from.
func (q *Query) Spec() QuerySpec { return q.spec }

// ID returns the query's federation-wide identifier.
func (q *Query) ID() string { return q.spec.ID }

// Operators returns the pipeline's operators in execution order,
// including the join when present.
func (q *Query) Operators() []operator.Operator {
	out := make([]operator.Operator, 0, len(q.chain)+1)
	if q.join != nil {
		out = append(out, q.join)
	}
	out = append(out, q.chain...)
	return out
}

// Feed pushes one tuple from the named input stream through the
// pipeline, invoking emit for each result. It returns the number of
// result tuples.
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
		results += q.runChain(0, w)
	}
	return results
}

// runChain pushes a tuple through chain[from:] and emits survivors.
func (q *Query) runChain(from int, t stream.Tuple) int {
	cur := []stream.Tuple{t}
	for i := from; i < len(q.chain) && len(cur) > 0; i++ {
		var next []stream.Tuple
		for _, c := range cur {
			next = append(next, q.chain[i].Process(0, c)...)
		}
		cur = next
	}
	for _, r := range cur {
		if q.emit != nil {
			q.emit(r)
		}
	}
	return len(cur)
}

// runTail drives the rows in buf[0] through the tail a batch at a time
// and emits what comes out of the last stage, in order. It returns the
// number of result tuples.
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
	if q.emit != nil {
		for i := range out {
			q.emit(out[i])
		}
	}
	return len(out)
}

// ReorderFilters permutes the filter sub-chain according to perm, a
// permutation of the current filter indexes (aggregates stay terminal,
// joins stay at the head). It is the hook the Adaptation Module uses to
// change operator ordering at runtime.
func (q *Query) ReorderFilters(perm []int) error {
	nFilters := len(q.chain) - len(q.tail)
	if len(perm) != nFilters {
		return fmt.Errorf("engine: query %s: permutation length %d, want %d", q.spec.ID, len(perm), nFilters)
	}
	seen := make([]bool, nFilters)
	newChain := make([]operator.Operator, 0, len(q.chain))
	for _, p := range perm {
		if p < 0 || p >= nFilters || seen[p] {
			return fmt.Errorf("engine: query %s: invalid permutation %v", q.spec.ID, perm)
		}
		seen[p] = true
		newChain = append(newChain, q.chain[p])
	}
	newChain = append(newChain, q.chain[nFilters:]...)
	q.chain = newChain
	return nil
}

// FilterSelectivities reports the observed selectivity of each filter in
// current chain order.
func (q *Query) FilterSelectivities() []float64 {
	nFilters := len(q.chain) - len(q.tail)
	out := make([]float64, nFilters)
	for i := 0; i < nFilters; i++ {
		out[i] = q.chain[i].Stats().Selectivity()
	}
	return out
}

// FilterCosts reports each filter's abstract per-tuple cost in current
// chain order.
func (q *Query) FilterCosts() []float64 {
	nFilters := len(q.chain) - len(q.tail)
	out := make([]float64, nFilters)
	for i := 0; i < nFilters; i++ {
		out[i] = q.chain[i].Cost()
	}
	return out
}
