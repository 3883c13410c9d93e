package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sspd"
	"sspd/internal/engine"
	"sspd/internal/stream"
)

// The oracle computes, before anything is timed, what every query must
// deliver for the exact sequence the run will publish. Stateless queries
// are evaluated by the plain predicates below — deliberately not
// stream.CompiledSet or operator.Filter, so a bug shared by the system's
// evaluators cannot hide. Stateful queries (aggregate, top-k, distinct)
// run on a MiniEngine, the repo's synchronous reference engine.

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// valuesHash hashes a tuple's attribute values without allocating.
func valuesHash(vs []stream.Value) uint64 {
	h := uint64(len(vs)) + 0x9e3779b97f4a7c15
	for _, v := range vs {
		switch v.Kind() {
		case stream.KindString:
			s := v.AsString()
			f := uint64(14695981039346656037)
			for i := 0; i < len(s); i++ {
				f = (f ^ uint64(s[i])) * 1099511628211
			}
			h = mix64(h ^ f)
		case stream.KindFloat:
			h = mix64(h ^ math.Float64bits(v.AsFloat()))
		default:
			h = mix64(h ^ uint64(v.AsInt()) ^ 0x51ed270b0a1f3c2d)
		}
	}
	return h
}

// resultHash is one result's contribution to its query's checksum; the
// checksum is the wrapping sum of these, so delivery order is free.
func resultHash(seq uint64, valHash uint64) uint64 {
	return mix64(seq*0x9e3779b97f4a7c15 ^ valHash)
}

// plainPred is one filter step in the oracle's own terms.
type plainPred struct {
	keyIdx int // -1: no key constraint
	keys   map[string]bool
	numIdx int // -1: no range constraint
	lo, hi float64
}

func (p plainPred) holds(vs []stream.Value) bool {
	if p.keyIdx >= 0 && !p.keys[vs[p.keyIdx].AsString()] {
		return false
	}
	if p.numIdx >= 0 {
		x := vs[p.numIdx].AsFloat()
		if x < p.lo || x > p.hi {
			return false
		}
	}
	return true
}

func stateless(spec sspd.QuerySpec) bool {
	return spec.Join == nil && spec.Agg == nil && spec.TopK == nil && spec.Distinct == nil
}

func compilePlain(spec sspd.QuerySpec, sc *stream.Schema) ([]plainPred, error) {
	preds := make([]plainPred, 0, len(spec.Filters))
	for _, f := range spec.Filters {
		p := plainPred{keyIdx: -1, numIdx: -1, lo: f.Lo, hi: f.Hi}
		if f.KeyField != "" {
			i, ok := sc.FieldIndex(f.KeyField)
			if !ok {
				return nil, fmt.Errorf("oracle: query %s: no field %q", spec.ID, f.KeyField)
			}
			p.keyIdx = i
			p.keys = make(map[string]bool, len(f.Keys))
			for _, k := range f.Keys {
				p.keys[k] = true
			}
		}
		if f.Field != "" {
			i, ok := sc.FieldIndex(f.Field)
			if !ok {
				return nil, fmt.Errorf("oracle: query %s: no field %q", spec.ID, f.Field)
			}
			p.numIdx = i
		}
		preds = append(preds, p)
	}
	return preds, nil
}

// queryExpect is what one query must deliver over the whole run.
type queryExpect struct {
	Count uint64 // results
	Sum   uint64 // wrapping sum of resultHash
	Paced uint64 // results triggered by paced-phase tuples
}

// expectation is the oracle's output.
type expectation struct {
	PerQuery []queryExpect // aligned with the spec list
	// CumQ[q][k] is the number of results of query q triggered by batches
	// 0..k; the closed-loop publisher and the drain waits hold each
	// query's delivered count against it.
	CumQ [][]uint32
	// BusySeconds adds up the time the reference computations ran, as if
	// on one thread.
	BusySeconds float64
}

// upTo is the number of results, over all queries, triggered by batches
// 0..k.
func (e *expectation) upTo(k int) uint64 {
	var n uint64
	for q := range e.CumQ {
		n += e.queryUpTo(q, k)
	}
	return n
}

func (e *expectation) queryUpTo(q, k int) uint64 {
	if k < 0 {
		return 0
	}
	return uint64(e.CumQ[q][k])
}

// buildOracle evaluates specs over the planned sequence.
func buildOracle(p *pool, pl plan, specs []sspd.QuerySpec, cat *sspd.Catalog) (*expectation, error) {
	sc, ok := cat.Lookup("quotes")
	if !ok {
		return nil, fmt.Errorf("oracle: no quotes schema")
	}
	exp := &expectation{PerQuery: make([]queryExpect, len(specs)), CumQ: make([][]uint32, len(specs))}
	for q := range exp.CumQ {
		exp.CumQ[q] = make([]uint32, pl.total())
	}
	var plainIdx, fullIdx []int
	for i, s := range specs {
		if stateless(s) {
			plainIdx = append(plainIdx, i)
		} else {
			fullIdx = append(fullIdx, i)
		}
	}
	// Split the stateful queries round-robin so the (equally expensive)
	// queries of one kind spread over the worker goroutines.
	workers := min(runtime.GOMAXPROCS(0), max(len(fullIdx), 1))
	groups := make([][]int, workers)
	for n, i := range fullIdx {
		groups[n%workers] = append(groups[n%workers], i)
	}
	busy := make([]float64, workers+1)
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	if len(plainIdx) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			errs[workers] = plainOracle(p, pl, specs, plainIdx, sc, exp.PerQuery, exp.CumQ)
			busy[workers] = time.Since(start).Seconds()
		}()
	}
	for g, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			errs[g] = miniOracle(p, pl, specs, idx, cat, exp.PerQuery, exp.CumQ)
			busy[g] = time.Since(start).Seconds()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, b := range busy {
		exp.BusySeconds += b
	}
	return exp, nil
}

// plainOracle evaluates the stateless queries idx. Each pool tuple is
// matched once (the pool cycles, the match does not change); the planned
// sequence then only re-hashes with the dense sequence number.
func plainOracle(p *pool, pl plan, specs []sspd.QuerySpec, idx []int, sc *stream.Schema,
	out []queryExpect, cumQ [][]uint32) error {
	preds := make([][]plainPred, len(idx))
	for n, i := range idx {
		var err error
		if preds[n], err = compilePlain(specs[i], sc); err != nil {
			return err
		}
	}
	nTuples := len(p.batches) * batchSize
	offsets := make([]uint32, nTuples+1)
	var hits []int32
	valHash := make([]uint64, nTuples)
	for bi, b := range p.batches {
		for j := range b {
			ti := bi*batchSize + j
			valHash[ti] = valuesHash(b[j].Values)
			for n := range idx {
				match := true
				for _, pr := range preds[n] {
					if !pr.holds(b[j].Values) {
						match = false
						break
					}
				}
				if match {
					hits = append(hits, int32(idx[n]))
				}
			}
			offsets[ti+1] = uint32(len(hits))
		}
	}
	pacedStart := pl.pacedStart()
	for k := 0; k < pl.total(); k++ {
		base := (k % len(p.batches)) * batchSize
		for j := 0; j < batchSize; j++ {
			ti := base + j
			seq := uint64(k)*batchSize + uint64(j)
			for _, q := range hits[offsets[ti]:offsets[ti+1]] {
				e := &out[q]
				e.Count++
				e.Sum += resultHash(seq, valHash[ti])
				if k >= pacedStart {
					e.Paced++
				}
			}
		}
		for _, q := range idx {
			cumQ[q][k] = uint32(out[q].Count)
		}
	}
	return nil
}

// miniOracle runs the stateful queries idx on a private MiniEngine over
// the planned sequence.
func miniOracle(p *pool, pl plan, specs []sspd.QuerySpec, idx []int, cat *sspd.Catalog,
	out []queryExpect, cumQ [][]uint32) error {
	eng := engine.NewMini("oracle", cat)
	defer eng.Close()
	paced := false
	for _, i := range idx {
		e := &out[i]
		err := eng.Register(specs[i], func(t stream.Tuple) {
			e.Count++
			e.Sum += resultHash(t.Seq, valuesHash(t.Values))
			if paced {
				e.Paced++
			}
		})
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	// A private copy of each batch: the pool's own tuples are stamped by
	// whoever publishes them, and another oracle goroutine may be at a
	// different batch.
	scratch := make(sspd.Batch, batchSize)
	for k := 0; k < pl.total(); k++ {
		paced = k >= pl.pacedStart()
		copy(scratch, p.batches[k%len(p.batches)])
		for j := range scratch {
			scratch[j].Seq = uint64(k)*batchSize + uint64(j)
		}
		eng.IngestBatch(scratch)
		for _, i := range idx {
			cumQ[i][k] = uint32(out[i].Count)
		}
	}
	return nil
}
