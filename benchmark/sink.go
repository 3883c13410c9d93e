package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/stream"
)

// querySink is one query's result callback state: a count, the
// order-independent checksum, a bitmap over sequence numbers that
// catches duplicates, and — while the paced phase runs — one latency
// sample per result. Everything is sized before the run, so the callback
// never allocates.
type querySink struct {
	// count is the number of results delivered; the closed-loop publisher
	// waits for it to reach target.
	count  atomic.Uint64
	target atomic.Uint64
	mu     sync.Mutex
	sum    uint64
	dups   uint64
	// stray counts results whose sequence number was never published.
	stray uint64
	seen  []uint64
	// lat holds one sample per paced-phase result: callback time − the
	// result's Ts in units of 100 ns in the low 32 bits (saturating, 7 min),
	// the triggering tuple's offset into the paced phase in the high 32.
	// Samples beyond its capacity are not stored.
	lat []uint64
	// pad keeps neighbouring sinks' mutexes off one cache line.
	_ [64]byte
}

// collector owns every sink of one federation.
type collector struct {
	sinks []querySink
	// delivered counts results over all queries.
	delivered atomic.Uint64
	// wake lets the one waiter sleep until a sink's count reaches the
	// sink's target.
	wake chan struct{}
	// timing is set while results should record latency samples;
	// pacedFirst and pacedTuples map a result's sequence number to its
	// offset into the paced phase.
	timing      atomic.Bool
	pacedFirst  uint64
	pacedTuples uint64
	// While sampling is set (traced slices of a traced run), one result
	// in sampleEvery is recorded as a "result" event whose parent is the
	// publish span of the batch that triggered it.
	sampling    atomic.Bool
	rec         *recorder
	sampleEvery uint64
	batchSpan   func(seq uint64) int32
}

func newCollector(exp *expectation, totalTuples int) *collector {
	c := &collector{sinks: make([]querySink, len(exp.PerQuery)), wake: make(chan struct{}, 1)}
	words := (totalTuples + 63) / 64
	for i := range c.sinks {
		c.sinks[i].seen = make([]uint64, words)
		// 5 % headroom: a duplicate-emitting bug must not cost a sample
		// slice growth inside the callback either.
		c.sinks[i].lat = make([]uint64, 0, exp.PerQuery[i].Paced+exp.PerQuery[i].Paced/20+16)
		c.sinks[i].target.Store(math.MaxUint64)
	}
	return c
}

// callback returns query i's result handler.
func (c *collector) callback(i int) func(stream.Tuple) {
	s := &c.sinks[i]
	return func(t stream.Tuple) { c.onResult(s, t) }
}

func (c *collector) onResult(s *querySink, t stream.Tuple) {
	h := resultHash(t.Seq, valuesHash(t.Values))
	var lat uint64
	var now time.Time
	// pacedFirst and pacedTuples are set before timing is; a result of a
	// tuple published outside the paced phase is not sampled.
	timing := false
	if c.timing.Load() {
		if off := t.Seq - c.pacedFirst; off < c.pacedTuples {
			timing = true
			now = time.Now()
			if d := now.Sub(t.Ts); d > 0 {
				lat = uint64(min(d/100, math.MaxUint32))
			}
			lat |= off << 32
		}
	}
	s.mu.Lock()
	s.sum += h
	word, bit := t.Seq>>6, uint64(1)<<(t.Seq&63)
	switch {
	case word >= uint64(len(s.seen)):
		s.stray++
	case s.seen[word]&bit != 0:
		s.dups++
	default:
		s.seen[word] |= bit
	}
	if timing && len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, lat)
	}
	s.mu.Unlock()
	if n := c.delivered.Add(1); c.sampling.Load() && n%c.sampleEvery == 0 {
		at := now
		if !timing {
			at = time.Now()
		}
		c.rec.add("result", c.batchSpan(t.Seq), at, at)
	}
	if s.count.Add(1) >= s.target.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// waitFor blocks until query i has delivered at least want results, or
// until it has delivered none for stall. It returns the count it last saw.
func (c *collector) waitFor(i int, want uint64, stall time.Duration) uint64 {
	s := &c.sinks[i]
	last := s.count.Load()
	if last >= want {
		return last
	}
	defer s.target.Store(math.MaxUint64)
	timer := time.NewTimer(stall)
	defer timer.Stop()
	for {
		s.target.Store(want)
		if got := s.count.Load(); got >= want {
			return got
		}
		select {
		case <-c.wake:
		case <-timer.C:
			got := s.count.Load()
			if got == last || got >= want {
				return got
			}
			last = got
			timer.Reset(stall)
		}
	}
}

// sliceLength is the stretch of the paced phase's schedule whose results
// get percentiles of their own; the reported value is the mean over the
// best calmShare of the slices, so a host stall inflates the slices it
// falls in, and the ones its backlog is worked off in, and nothing else.
// At 5 ms the slowest workload still puts a hundred results into a slice,
// and in a minute in which the host froze the box for 5–100 ms about every
// 50 ms a tenth of the slices saw none of it (with 20 ms slices and the best
// quarter of them, the same minute moved the median latency tenfold).
const sliceLength = 5 * time.Millisecond

// minSliceSamples is how many results a slice needs for its percentiles
// to count.
const minSliceSamples = 10

// latencies returns the paced-phase samples in milliseconds, ascending:
// all of them, and split into slices of sliceTuples consecutive input
// tuples by the tuple that triggered the result.
func (c *collector) latencies(sliceTuples uint64) (all []float64, bySlice [][]float64) {
	sliceTuples = max(sliceTuples, 1)
	bySlice = make([][]float64, (c.pacedTuples+sliceTuples-1)/sliceTuples)
	for i := range c.sinks {
		for _, l := range c.sinks[i].lat {
			ms := float64(l&math.MaxUint32) / 1e4
			all = append(all, ms)
			s := (l >> 32) / sliceTuples
			bySlice[s] = append(bySlice[s], ms)
		}
	}
	sort.Float64s(all)
	for s := range bySlice {
		sort.Float64s(bySlice[s])
	}
	return all, bySlice
}

// slicedPercentile is calmBest over the slices with enough samples of each
// slice's p-quantile.
func slicedPercentile(bySlice [][]float64, p float64) float64 {
	var qs []float64
	for _, s := range bySlice {
		if len(s) >= minSliceSamples {
			qs = append(qs, percentile(s, p))
		}
	}
	return calmBest(qs, false)
}

// verdict compares what arrived with the oracle.
type verdict struct {
	Expected, Delivered uint64
	Missing, Extra      uint64
	Duplicates, Stray   uint64
	// Mismatched counts results of queries that delivered exactly the
	// expected number of results but with a different checksum.
	Mismatched uint64
	BadQueries []int
}

// failed is the number of failed operations: results that never came,
// came twice, came unasked, or came wrong.
func (v verdict) failed() uint64 {
	return min(v.Missing+v.Extra+v.Duplicates+v.Stray+v.Mismatched, max(v.Expected, 1))
}

// correct is false when the system delivered something it must never
// deliver. Missing results are failed operations but not incorrect
// output: the shipped engines shed load by design.
func (v verdict) correct() bool {
	return v.Extra == 0 && v.Duplicates == 0 && v.Stray == 0 && v.Mismatched == 0
}

func (c *collector) verify(exp *expectation) verdict {
	var v verdict
	for i := range c.sinks {
		s := &c.sinks[i]
		s.mu.Lock()
		e := exp.PerQuery[i]
		v.Expected += e.Count
		count := s.count.Load()
		v.Delivered += count
		v.Duplicates += s.dups
		v.Stray += s.stray
		bad := s.dups > 0 || s.stray > 0
		// A duplicate or a stray is counted as such, once; what is left is
		// held against the expected count.
		switch valid := count - s.dups - s.stray; {
		case valid < e.Count:
			v.Missing += e.Count - valid
		case valid > e.Count:
			v.Extra += valid - e.Count
			bad = true
		case !bad && s.sum != e.Sum:
			v.Mismatched += e.Count
			bad = true
		}
		if bad {
			v.BadQueries = append(v.BadQueries, i)
		}
		s.mu.Unlock()
	}
	return v
}
