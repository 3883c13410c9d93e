// Package operator implements the continuous-query operator library used
// by every processing engine in sspd — exactly the steps a QuerySpec can
// ask for: selection (Filter, a compiled data interest), windowed
// symmetric hash join, windowed de-duplication (Distinct), windowed
// aggregation and top-k ranking.
//
// Operators are single-threaded building blocks: an engine (or a query
// fragment pinned to one processor) owns each instance and drives it by
// calling Process. Every operator tracks running statistics — observed
// selectivity, input/output counts, and per-tuple cost — because the
// paper's adaptive components (operator placement, Section 4.1, and the
// Adaptation Module's operator re-ordering, Section 4.2) make their
// decisions from exactly these numbers.
package operator

import (
	"fmt"
	"sync"

	"sspd/internal/stream"
)

// Operator is one continuous-query operator. Process consumes a tuple on
// an input port (0 for unary operators; 0 = left and 1 = right for
// joins) and returns the resulting output tuples (often zero or one).
// Implementations are not safe for concurrent use; engines serialize
// calls per operator.
type Operator interface {
	// Name returns the operator's unique name within its query.
	Name() string
	// Process consumes one tuple and returns any outputs.
	Process(port int, t stream.Tuple) []stream.Tuple
	// OutSchema describes the tuples Process emits.
	OutSchema() *stream.Schema
	// Cost returns the operator's abstract per-tuple processing cost.
	// The intra-entity placement scheme multiplies it by the input rate
	// to estimate processor load.
	Cost() float64
	// Stats exposes the operator's running statistics.
	Stats() *Stats
}

// Stats holds an operator's observed runtime statistics. All methods are
// safe for concurrent reads while one goroutine writes.
type Stats struct {
	mu  sync.Mutex
	in  int64
	out int64
	// sel tracks the smoothed output/input ratio. For filters this is
	// the classic selectivity in [0,1]; joins may exceed 1.
	sel *selEWMA
}

// selEWMA is a tiny non-locking EWMA; Stats.mu guards it.
type selEWMA struct {
	alpha float64
	value float64
	init  bool
}

func newStats() *Stats {
	return &Stats{sel: &selEWMA{alpha: 0.1}}
}

// record folds one Process call's fan-out into the statistics.
func (s *Stats) record(outputs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in++
	s.out += int64(outputs)
	sample := float64(outputs)
	if !s.sel.init {
		s.sel.value = sample
		s.sel.init = true
	} else {
		s.sel.value = s.sel.alpha*sample + (1-s.sel.alpha)*s.sel.value
	}
}

// RecordBatch folds one vectorized kernel invocation — in tuples
// consumed, out survivors — into the statistics with a single lock
// acquisition. The selectivity EWMA receives the batch's out/in ratio
// as one sample, so adaptive ordering sees the same smoothed signal it
// gets from per-tuple record calls, at batch cost.
func (s *Stats) RecordBatch(in, out int) {
	if in <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in += int64(in)
	s.out += int64(out)
	sample := float64(out) / float64(in)
	if !s.sel.init {
		s.sel.value = sample
		s.sel.init = true
	} else {
		s.sel.value = s.sel.alpha*sample + (1-s.sel.alpha)*s.sel.value
	}
}

// In returns the number of tuples consumed.
func (s *Stats) In() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in
}

// Selectivity returns the smoothed outputs-per-input estimate. Before any
// input it returns 1 (the conservative prior the Adaptation Module uses).
func (s *Stats) Selectivity() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sel.init {
		return 1
	}
	return s.sel.value
}

// base carries the fields every operator shares.
type base struct {
	name   string
	cost   float64
	out    *stream.Schema
	stats  *Stats
	closed bool
}

func newBase(name string, cost float64, out *stream.Schema) base {
	if cost <= 0 {
		cost = 1
	}
	return base{name: name, cost: cost, out: out, stats: newStats()}
}

// Name implements Operator.
func (b *base) Name() string { return b.name }

// OutSchema implements Operator.
func (b *base) OutSchema() *stream.Schema { return b.out }

// Cost implements Operator.
func (b *base) Cost() float64 { return b.cost }

// Stats implements Operator.
func (b *base) Stats() *Stats { return b.stats }

func badPort(op string, port, arity int) string {
	return fmt.Sprintf("operator %s: port %d out of range [0,%d)", op, port, arity)
}
