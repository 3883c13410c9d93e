package operator

import (
	"fmt"

	"sspd/internal/stream"
)

// Filter is a selection operator: tuples satisfying its predicate pass
// through unchanged. The predicate is a data interest compiled once
// against the input schema — the same stream.CompiledInterest a
// dissemination-tree ancestor evaluates for early filtering (Section
// 3.1) — and both entries, Process (a row) and ProcessBatch (a columnar
// batch), evaluate that one struct and record into the same Stats.
type Filter struct {
	base
	pred stream.CompiledInterest
	// keys is pred's key constraints bound to the ColBatch ProcessBatch
	// last ran on (stream.KeyBits). Engines serialize calls per operator
	// (the Operator contract), so the predicate stays immutable and the
	// mutable binding is the filter's own.
	keys stream.KeyBits
}

// NewFilter builds a filter passing the tuples whose values satisfy the
// interest; the interest's stream name is not checked, because a filter
// after a join sees the join's tuples. cost is the abstract per-tuple
// evaluation cost (<=0 defaults to 1). The output schema equals the
// input schema.
func NewFilter(name string, in *stream.Schema, interest stream.Interest, cost float64) (*Filter, error) {
	if in == nil {
		return nil, fmt.Errorf("operator %s: nil input schema", name)
	}
	pred := stream.CompileInterest(interest, in)
	if pred.Dead() {
		return nil, fmt.Errorf("operator %s: %v constrains a field schema %s lacks", name, interest, in.Name())
	}
	return &Filter{base: newBase(name, cost, in), pred: pred}, nil
}

// Process implements Operator.
func (f *Filter) Process(port int, t stream.Tuple) []stream.Tuple {
	if port != 0 {
		panic(badPort(f.name, port, 1))
	}
	if f.pred.MatchValues(&t) {
		f.stats.record(1)
		return []stream.Tuple{t}
	}
	f.stats.record(0)
	return nil
}

// ProcessBatch is the batch entry: it shrinks the columnar batch's
// selection to the rows Process would pass, records the batch into the
// Stats as one sample, and returns the number of survivors. The first
// batch on a ColBatch binds the filter's keys to its dictionary; every
// later one tests a bit per (key constraint, row).
func (f *Filter) ProcessBatch(cb *stream.ColBatch) int {
	in := cb.Len()
	out := f.pred.Apply(cb, &f.keys)
	f.stats.RecordBatch(in, out)
	return out
}
