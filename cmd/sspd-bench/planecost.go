package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sspd/internal/core"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// The on/off cost harness shared by the observability, stats-plane,
// engine-introspection and latency benches: one topology, one timed
// publish loop, one interleaved best-of-N comparison.

const (
	planeCostTuples = 100_000
	planeCostBatch  = 100
	planeCostRounds = 5
)

// miniFactory builds the synchronous oracle engine.
func miniFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.NewMini(name, c)
}

// quietOptions journals the federation's events without printing them.
func quietOptions(fanout int) core.Options {
	return core.Options{Fanout: fanout,
		Logger: obslog.New(obslog.NewJournal(obslog.DefaultJournalCapacity), nil)}
}

// benchFederation builds the bench topology: nEntities entities of two
// processors in a line, one "quotes" source, one pass-all price filter
// per entity, control traffic settled, then setup (nil for none) — the
// planes both sides of a comparison run with. Callers own the returned
// federation and transport.
func benchFederation(opts core.Options, nEntities int, factory entity.EngineFactory,
	setup func(*core.Federation) error) (*core.Federation, *simnet.SimNet, error) {
	net := simnet.NewSim(nil)
	fed, err := core.New(net, workload.Catalog(100, 20), opts)
	if err != nil {
		net.Close()
		return nil, nil, err
	}
	fail := func(err error) (*core.Federation, *simnet.SimNet, error) {
		fed.Close()
		net.Close()
		return nil, nil, err
	}
	if err := fed.AddSource("quotes", simnet.Point{},
		core.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		return fail(err)
	}
	for i := 0; i < nEntities; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i),
			simnet.Point{X: float64(10 + i*20)}, 2, factory); err != nil {
			return fail(err)
		}
	}
	if err := fed.Start(); err != nil {
		return fail(err)
	}
	for q := 0; q < nEntities; q++ {
		spec := engine.QuerySpec{
			ID: fmt.Sprintf("q%d", q), Source: "quotes",
			Filters: []engine.FilterSpec{{Field: "price", Lo: 0, Hi: 1000, Cost: 1}},
			Load:    5,
		}
		if _, err := fed.SubmitQuery(spec, simnet.Point{X: float64(15 + q*20)}, nil); err != nil {
			return fail(err)
		}
	}
	net.Quiesce(2 * time.Second)
	if setup != nil {
		if err := setup(fed); err != nil {
			return fail(err)
		}
	}
	return fed, net, nil
}

// planeCostResult is one on/off comparison: each side's best round in
// ns/tuple, the on-over-off delta, and the within-side spread of the
// rounds (median over best, summed across both sides, as a percentage
// of off) — what this machine's scheduler jitter alone does to the
// measurement.
type planeCostResult struct {
	Off, On, NoisePct, OverheadPct float64
}

// planeCost measures what enable costs the end-to-end tuple path:
// publish→result ns/tuple over planeCostTuples tuples on a fresh
// federation from factory, with enable applied (on) and not (off).
// Rounds interleave off/on — alternating which side goes first and
// levelling the heap between runs — so slow machine-level drift (CPU
// frequency, container neighbors, accumulated garbage) hits both sides
// equally instead of landing wholesale in the delta; each side keeps its
// best round. The run is long on purpose: the drain-phase Quiesce polls
// in 1ms steps, so a stray digest push during the drain costs a fixed
// few milliseconds that must be amortized over enough tuples to not
// masquerade as per-tuple cost.
func planeCost(factory func() (*core.Federation, *simnet.SimNet, error),
	enable func(*core.Federation) error) (planeCostResult, error) {
	runOnce := func(on bool) (float64, error) {
		fed, net, err := factory()
		if err != nil {
			return 0, err
		}
		defer net.Close()
		defer fed.Close()
		if on {
			if err := enable(fed); err != nil {
				return 0, err
			}
		}
		tick := workload.NewTicker(1, 100, 1.2)
		if err := fed.Publish("quotes", tick.Batch(planeCostBatch)); err != nil {
			return 0, err
		}
		net.Quiesce(2 * time.Second)
		start := time.Now()
		for sent := 0; sent < planeCostTuples; sent += planeCostBatch {
			if err := fed.Publish("quotes", tick.Batch(planeCostBatch)); err != nil {
				return 0, err
			}
		}
		net.Quiesce(10 * time.Second)
		return float64(time.Since(start).Nanoseconds()) / planeCostTuples, nil
	}
	var offs, ons []float64
	for r := 0; r < planeCostRounds; r++ {
		for _, on := range []bool{r%2 == 1, r%2 == 0} {
			runtime.GC()
			ns, err := runOnce(on)
			if err != nil {
				return planeCostResult{}, err
			}
			if on {
				ons = append(ons, ns)
			} else {
				offs = append(offs, ns)
			}
		}
	}
	sort.Float64s(offs)
	sort.Float64s(ons)
	res := planeCostResult{Off: offs[0], On: ons[0]}
	res.NoisePct = 100 * ((offs[len(offs)/2] - offs[0]) + (ons[len(ons)/2] - ons[0])) / offs[0]
	res.OverheadPct = 100 * (res.On - res.Off) / res.Off
	return res, nil
}
