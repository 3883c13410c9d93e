package entity

import (
	"fmt"
	"sort"
	"sync"

	"sspd/internal/engine"
	"sspd/internal/metrics"
	"sspd/internal/stream"
)

// AM is the paper's Adaptation Module: it intercepts the tuples flowing
// into one compiled query, keeps observing the engine-reported
// selectivities, and periodically re-orders the query's commutable
// filters to the currently optimal order. It is engine-independent: it
// only uses the Query's public reorder hook, never engine internals.
type AM struct {
	q *engine.Query
	// every is the adaptation check period in tuples.
	every int
	// minGain is the relative expected-cost improvement required to
	// reorder (hysteresis against thrashing).
	minGain float64

	fed         int
	Adaptations metrics.Counter
}

// NewAM wraps a compiled query. every <= 0 defaults to 256 tuples;
// minGain <= 0 defaults to 5%.
func NewAM(q *engine.Query, every int, minGain float64) (*AM, error) {
	if q == nil {
		return nil, fmt.Errorf("entity: AM needs a query")
	}
	if every <= 0 {
		every = 256
	}
	if minGain <= 0 {
		minGain = 0.05
	}
	return &AM{q: q, every: every, minGain: minGain}, nil
}

// Feed pushes one tuple through the query (returning its result count)
// and adapts the operator ordering when due. Like the Query itself, Feed
// is single-threaded.
func (am *AM) Feed(streamName string, t stream.Tuple) int {
	n := am.q.Feed(streamName, t)
	am.fed++
	if am.fed%am.every == 0 {
		am.maybeReorder()
	}
	return n
}

// maybeReorder delegates the reorder decision to engine.MaybeReorder —
// the single source of truth both engines' AdaptOrdering also use —
// and counts applied reorders.
func (am *AM) maybeReorder() {
	if engine.MaybeReorder(am.q, am.minGain) {
		am.Adaptations.Inc()
	}
}

// Candidate is one possible immediate downstream processor for a
// fragment's output, scored by the statistics the AM collects (queue
// pressure, observed delay).
type Candidate struct {
	ID string
}

// DownstreamChooser picks, per output tuple, the best immediate
// downstream processor among candidates — the per-tuple routing decision
// of Section 4.2. Scores are smoothed observed delays; Report feeds
// measurements back. Safe for concurrent use: the federation's AM plane
// Reports trace-measured delays from tuple-path goroutines while
// upstream fragment goroutines call Choose.
type DownstreamChooser struct {
	mu    sync.Mutex
	score map[string]*metrics.EWMA
	order []string
	// explore sends every Nth tuple to a non-best (round-robin)
	// candidate so stale scores recover.
	explore int
	n       int
	// cold rotates the pick among still-unmeasured candidates, so the
	// feedback round-trip window spreads load instead of slamming the
	// first candidate in sorted order.
	cold int
	// unm is Choose's scratch list of unmeasured candidates (reused to
	// keep the per-tuple decision allocation-free).
	unm []string
	// routed/explored count decisions engine-lifetime: every Choose,
	// and the subset that probed a non-best candidate (cold-start
	// rotation or explore tick).
	routed   int64
	explored int64
}

// NewDownstreamChooser builds a chooser over candidate processor IDs.
// every <= 0 defaults to exploring every 32nd tuple.
func NewDownstreamChooser(candidates []string, explore int) (*DownstreamChooser, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("entity: chooser needs candidates")
	}
	if explore <= 0 {
		explore = 32
	}
	c := &DownstreamChooser{
		score:   make(map[string]*metrics.EWMA, len(candidates)),
		explore: explore,
		unm:     make([]string, 0, len(candidates)),
	}
	for _, id := range candidates {
		if _, dup := c.score[id]; dup {
			return nil, fmt.Errorf("entity: duplicate candidate %q", id)
		}
		c.score[id] = metrics.NewEWMA(0.2)
		c.order = append(c.order, id)
	}
	sort.Strings(c.order)
	return c, nil
}

// Choose returns the candidate with the lowest smoothed delay,
// periodically interleaving exploration of the others. While any
// candidate is still unmeasured the pick rotates among the unmeasured
// ones — the delay report for the first pick is a full feedback
// round-trip away, and every tuple in that window would otherwise herd
// onto one processor. Explore ticks skip the current best: probing the
// candidate already being measured by regular traffic would waste the
// slot meant to let stale scores recover.
func (c *DownstreamChooser) Choose() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.routed++
	best := ""
	bestScore := 0.0
	unm := c.unm[:0]
	for _, id := range c.order {
		e := c.score[id]
		if !e.Initialized() {
			unm = append(unm, id)
			continue
		}
		if s := e.Value(); best == "" || s < bestScore {
			best, bestScore = id, s
		}
	}
	if len(unm) > 0 {
		c.cold++
		c.explored++
		return unm[(c.cold-1)%len(unm)]
	}
	if len(c.order) > 1 && c.n%c.explore == 0 {
		c.explored++
		k := (c.n / c.explore) % (len(c.order) - 1)
		for _, id := range c.order {
			if id == best {
				continue
			}
			if k == 0 {
				return id
			}
			k--
		}
	}
	return best
}

// Best returns the measured candidate with the lowest smoothed delay,
// or "" while every candidate is still unmeasured. The AM plane diffs
// it across Reports to journal preferred-candidate switches.
func (c *DownstreamChooser) Best() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := ""
	bestScore := 0.0
	for _, id := range c.order {
		e := c.score[id]
		if !e.Initialized() {
			continue
		}
		if s := e.Value(); best == "" || s < bestScore {
			best, bestScore = id, s
		}
	}
	return best
}

// RoutedCount returns how many Choose decisions this chooser has made.
func (c *DownstreamChooser) RoutedCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routed
}

// ExploredCount returns how many decisions probed a non-best candidate
// (cold-start rotation or explore ticks).
func (c *DownstreamChooser) ExploredCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.explored
}

// Report feeds an observed delay (seconds) for a candidate back into
// the chooser. Unknown candidates are ignored.
func (c *DownstreamChooser) Report(id string, delaySeconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.score[id]; ok {
		e.Update(delaySeconds)
	}
}

// Score returns the current smoothed delay for a candidate (0 if
// unmeasured or unknown).
func (c *DownstreamChooser) Score(id string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.score[id]; ok {
		return e.Value()
	}
	return 0
}

// SplitSpec cuts a query into n contiguous fragments for placement on
// different processors. Only the filter chain is cuttable: a query with
// a join is never split (the paper's own argument — operator state makes
// finer cuts engine-specific), and a terminal aggregate stays in the
// last fragment. Fragment IDs are spec.ID + "#<i>"; every fragment keeps
// the original Source stream (filters preserve the schema), so fragment
// i+1 can consume fragment i's output unchanged.
func SplitSpec(spec engine.QuerySpec, n int) []engine.QuerySpec {
	if spec.Join != nil || len(spec.Filters) < 2 || n <= 1 {
		one := spec
		one.ID = spec.ID + "#0"
		return []engine.QuerySpec{one}
	}
	if n > len(spec.Filters) {
		n = len(spec.Filters)
	}
	per := len(spec.Filters) / n
	extra := len(spec.Filters) % n
	out := make([]engine.QuerySpec, 0, n)
	idx := 0
	for i := 0; i < n; i++ {
		take := per
		if i < extra {
			take++
		}
		frag := engine.QuerySpec{
			ID:      fmt.Sprintf("%s#%d", spec.ID, i),
			Source:  spec.Source,
			Filters: spec.Filters[idx : idx+take],
		}
		idx += take
		if i == n-1 {
			frag.Distinct = spec.Distinct
			frag.Agg = spec.Agg
			frag.TopK = spec.TopK
		}
		out = append(out, frag)
	}
	return out
}
