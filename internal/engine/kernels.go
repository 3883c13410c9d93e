// Vectorized kernel compilation for ShardEngine (DESIGN.md §13): a
// non-join query's operator chain compiles into a flat pipeline of
// batch kernels. Filter steps become stream.VecFilter kernels that scan
// columns and shrink the batch's selection vector; the surviving rows
// are gathered once into a buffer the Query reuses and the stateful
// tail (distinct/aggregate/top-k) runs over them a stage at a time,
// each operator's ProcessBatch consuming the previous stage's batch:
// one virtual dispatch and one stats lock per (operator, batch).
// Aggregate and top-k cut their results' Values from one slab per
// batch, which is never reused — results escape to user callbacks.
//
// Kernels never read the clock: the shard takes exactly one timestamp
// pair per (query, batch) around the whole pipeline (lint-obslog
// enforces the rule for this file and for the tail's).
package engine

import (
	"fmt"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

// vecFilter pairs one columnar filter kernel with the chain operator it
// mirrors, so observed selectivities keep flowing into the operator's
// Stats (the Adaptation Module reads them from there) at batch
// granularity.
type vecFilter struct {
	vf *stream.VecFilter
	op operator.Operator
}

// vecPipeline is a query's compiled batch pipeline.
type vecPipeline struct {
	filters []vecFilter
	// nFilters is the chain prefix length the filters cover; the tail is
	// the rest of the chain.
	nFilters int
}

// compileVecPipeline builds the vectorized pipeline for a compiled
// non-join query. The vec filters are created in spec order, matching
// q.chain's initial filter prefix; resync realigns them after the
// Adaptation Module reorders the chain.
func compileVecPipeline(spec QuerySpec, catalog *stream.Catalog, q *Query) (*vecPipeline, error) {
	src, ok := catalog.Lookup(spec.Source)
	if !ok {
		return nil, fmt.Errorf("engine: query %s: unknown stream %q", spec.ID, spec.Source)
	}
	p := &vecPipeline{nFilters: len(q.chain) - len(q.tail)}
	if p.nFilters != len(spec.Filters) {
		return nil, fmt.Errorf("engine: query %s: %d chain filters vs %d spec filters", spec.ID, p.nFilters, len(spec.Filters))
	}
	for i, f := range spec.Filters {
		rIdx, kIdx, err := filterFieldIndexes(f, src)
		if err != nil {
			return nil, fmt.Errorf("engine: query %s: %w", spec.ID, err)
		}
		p.filters = append(p.filters, vecFilter{
			vf: stream.NewVecFilter(rIdx, f.Lo, f.Hi, kIdx, f.Keys),
			op: q.chain[i],
		})
	}
	return p, nil
}

// filterFieldIndexes resolves a filter spec's fields against a schema
// with the same rules as compileFilter (join prefixes included), and
// returns -1 for absent constraints.
func filterFieldIndexes(f FilterSpec, sc *stream.Schema) (rIdx, kIdx int, err error) {
	resolve := func(field string) (int, error) {
		if field == "" {
			return -1, nil
		}
		if i, ok := sc.FieldIndex(field); ok {
			return i, nil
		}
		for _, pre := range []string{"l_", "r_"} {
			if i, ok := sc.FieldIndex(pre + field); ok {
				return i, nil
			}
		}
		return -1, fmt.Errorf("schema %s has no field %q", sc.Name(), field)
	}
	if rIdx, err = resolve(f.Field); err != nil {
		return
	}
	kIdx, err = resolve(f.KeyField)
	return
}

// run pushes one columnar batch through the pipeline: each filter
// kernel shrinks the selection vector (recording batch-granularity
// stats on its chain operator), then the survivors are gathered and go
// through the stateful tail as one batch. It returns the number of
// result tuples.
func (p *vecPipeline) run(cb *stream.ColBatch, q *Query) int {
	for i := range p.filters {
		in := cb.Len()
		if in == 0 {
			return 0
		}
		out := p.filters[i].vf.Apply(cb)
		p.filters[i].op.Stats().RecordBatch(in, out)
	}
	q.buf[0] = cb.Gather(q.buf[0][:0])
	return q.runTail()
}

// resync realigns the vec filter order with q.chain's (possibly
// reordered) filter prefix, matching by operator identity. Called on
// the owning shard after a chain reorder.
func (p *vecPipeline) resync(q *Query) {
	aligned := make([]vecFilter, 0, len(p.filters))
	for i := 0; i < p.nFilters; i++ {
		op := q.chain[i]
		for j := range p.filters {
			if p.filters[j].op == op {
				aligned = append(aligned, p.filters[j])
				break
			}
		}
	}
	if len(aligned) == len(p.filters) {
		p.filters = aligned
	}
}
