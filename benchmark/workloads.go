package main

import (
	"fmt"
	"math/rand"

	"sspd"
	"sspd/internal/engine"
)

const (
	// numSymbols is the ticker's symbol universe; zipf 1.2 over it makes
	// symbol i's popularity depend on i alone, never on the seed.
	numSymbols = 100
	zipfSkew   = 1.2
	// volumeDomain is the width of the quotes schema's volume field,
	// which the ticker draws uniformly and independently per tuple. Every
	// range predicate here is a volume band: its selectivity is its
	// width over the domain on every seed, where a band on the
	// random-walking price would select anything from 0 to 100 %
	// depending on where the seed started each symbol.
	volumeDomain = 1e6
)

// placedSpec is one query with the origin it is submitted from.
type placedSpec struct {
	Spec   sspd.QuerySpec
	Origin sspd.Point
}

// workloadDef is one benchmark workload: topology, engine, transport,
// query population and the two input sizes.
type workloadDef struct {
	Name string
	Why  string
	// Engine is core.Options.Engine; the entity factory stays nil so the
	// workload always measures what ships under that name.
	Engine string
	// Strategy is core.Options.Strategy. Its zero value is SourceDirect
	// (the Options comment says Locality, but nothing normalizes the
	// field), so the workloads on "shipped defaults" run a star: the
	// source relay matches, splits and re-encodes for every entity.
	Strategy sspd.Strategy
	TCP      bool
	Entities int
	Procs    int
	// Churn runs the submit/remove probe beside the paced phase, on a
	// second goroutine, instead of after it.
	Churn bool
	// SatTuplesPerSec sizes the closed-loop phase: it publishes
	// SatTuplesPerSec × seconds/2 tuples, about seconds/2 of work on the
	// 2-core reference box in a quiet minute (a third more in a busy one).
	SatTuplesPerSec int
	// PacedTuplesPerSec is the open-loop input rate.
	PacedTuplesPerSec int
	Queries           func(seed int64, symbols []string) []placedSpec
}

// entityPos puts entity i on a line leaving the source at the origin, so
// the locality tree is a chain and every entity but the last relays.
func entityPos(i int) sspd.Point { return sspd.Point{X: float64(10 * (i + 1))} }

func entityName(i int) string { return fmt.Sprintf("e%02d", i+1) }

func volumeBand(rng *rand.Rand, share float64) sspd.FilterSpec {
	width := share * volumeDomain
	lo := rng.Float64() * (volumeDomain - width)
	return sspd.FilterSpec{Field: "volume", Lo: lo, Hi: lo + width, Cost: 1}
}

// fanoutQueries is one stateless query per entity: 8 symbols no other
// query watches (strided, so zipf mass spreads over the entities) and a
// 25 % volume band.
func fanoutQueries(entities int) func(int64, []string) []placedSpec {
	return func(seed int64, symbols []string) []placedSpec {
		rng := rand.New(rand.NewSource(seed))
		out := make([]placedSpec, 0, entities)
		for i := 0; i < entities; i++ {
			keys := make([]string, 0, 8)
			for j := 0; j < 8 && i+entities*j < len(symbols); j++ {
				keys = append(keys, symbols[i+entities*j])
			}
			out = append(out, placedSpec{
				Spec: sspd.QuerySpec{
					ID:     fmt.Sprintf("fan%02d", i),
					Source: "quotes",
					Filters: []sspd.FilterSpec{
						{KeyField: "symbol", Keys: keys, Cost: 1},
						volumeBand(rng, 0.25),
					},
				},
				Origin: entityPos(i),
			})
		}
		return out
	}
}

// manyQueries is n stateless filters in 4 interest groups of 25 symbols:
// 2–5 keys from the query's group, 30 % of queries also watch 2 symbols
// of the next group, and a 40 % volume band so that 64 queries together
// emit about one result per input tuple.
func manyQueries(n, entities int) func(int64, []string) []placedSpec {
	const groups = 4
	return func(_ int64, symbols []string) []placedSpec {
		// The bands come from a fixed stream, like the keys: with 64
		// queries the seed's draw of bands moved how much of the stream
		// each entity takes, and with it allocation per tuple, by 10 %.
		rng := rand.New(rand.NewSource(64))
		per := len(symbols) / groups
		out := make([]placedSpec, 0, n)
		for j := 0; j < n; j++ {
			g, r := j%groups, j/groups
			keys := make([]string, 0, 7)
			for i := 0; i < 2+r%4; i++ {
				keys = append(keys, symbols[g*per+(r*3+i*7)%per])
			}
			if j%10 < 3 {
				next := (g + 1) % groups
				keys = append(keys, symbols[next*per+(r*5)%per], symbols[next*per+(r*5+11)%per])
			}
			out = append(out, placedSpec{
				Spec: sspd.QuerySpec{
					ID:     fmt.Sprintf("mq%03d", j),
					Source: "quotes",
					Filters: []sspd.FilterSpec{
						{KeyField: "symbol", Keys: keys, Cost: 1},
						volumeBand(rng, 0.4),
					},
				},
				Origin: entityPos(j % entities),
			})
		}
		return out
	}
}

// statefulQueries is 16 windowed queries behind 50 %-selective volume
// filters: 8 sliding aggregates, 2 top-k, 6 distinct. The filters
// alternate between the low and the high half of the volume domain by
// placement round, so every entity's interests together cover the whole
// stream and its relay forwards each batch on the pass-through path.
func statefulQueries(entities int) func(int64, []string) []placedSpec {
	return func(int64, []string) []placedSpec {
		var out []placedSpec
		add := func(id string, fill func(*sspd.QuerySpec)) {
			band := sspd.FilterSpec{Field: "volume", Lo: 0, Hi: volumeDomain / 2, Cost: 1}
			if (len(out)/entities)%2 == 1 {
				band.Lo, band.Hi = volumeDomain/2, volumeDomain
			}
			spec := sspd.QuerySpec{ID: id, Source: "quotes", Filters: []sspd.FilterSpec{band}}
			fill(&spec)
			out = append(out, placedSpec{Spec: spec, Origin: entityPos(len(out) % entities)})
		}
		for i := 0; i < 8; i++ {
			fn, window := sspd.AggSum, 64
			if i%2 == 1 {
				fn = sspd.AggAvg
			}
			if i >= 4 {
				window = 1024
			}
			add(fmt.Sprintf("agg%02d", i), func(s *sspd.QuerySpec) {
				s.Agg = &sspd.AggSpec{Fn: fn, ValueField: "price", GroupField: "symbol",
					Window: sspd.CountWindow(window), Cost: 2}
			})
		}
		for i := 0; i < 2; i++ {
			add(fmt.Sprintf("top%02d", i), func(s *sspd.QuerySpec) {
				s.TopK = &engine.TopKSpec{K: 5, ValueField: "price", KeyField: "symbol",
					Window: sspd.CountWindow(32), Cost: 2}
			})
		}
		for i := 0; i < 6; i++ {
			add(fmt.Sprintf("dis%02d", i), func(s *sspd.QuerySpec) {
				s.Distinct = &engine.DistinctSpec{Field: "symbol", Window: sspd.CountWindow(256), Cost: 1}
			})
		}
		return out
	}
}

// probeSpec is the 0.5 %-selective filter the submit probe registers
// and withdraws.
func probeSpec(i int, seed int64) sspd.QuerySpec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	return sspd.QuerySpec{
		ID:      fmt.Sprintf("probe%04d", i),
		Source:  "quotes",
		Filters: []sspd.FilterSpec{volumeBand(rng, 0.005)},
	}
}

var workloads = []workloadDef{
	{
		Name: "relay_fanout",
		Why: "12 entities on shipped defaults (a star): the source relay matches, splits and re-encodes each " +
			"batch for 12 children and suppresses 98 % of copies, so stream codec/match and dissemination do the work",
		Entities: 12, Procs: 2,
		SatTuplesPerSec: 1_200_000, PacedTuplesPerSec: 150_000,
		Queries: fanoutQueries(12),
	},
	{
		Name: "many_queries",
		Why: "64 stateless filters on 2 shard-engine entities: a trivial tree, so 32-term interest matching, the " +
			"per-query delegation fan-out and the filter kernels dominate; registration cost is gated here",
		Engine: "shard", Entities: 2, Procs: 2,
		SatTuplesPerSec: 320_000, PacedTuplesPerSec: 30_000,
		Queries: manyQueries(64, 2),
	},
	{
		Name: "stateful_tail",
		Why: "16 sliding aggregates, top-k and distinct behind 50 % filters on a 4-entity chain: every passing " +
			"tuple updates state and most emit; relays forward every batch on the pass-through path",
		Engine: "shard", Strategy: sspd.Locality, Entities: 4, Procs: 2,
		SatTuplesPerSec: 200_000, PacedTuplesPerSec: 20_000,
		Queries: statefulQueries(4),
	},
	{
		Name: "tcp_churn",
		Why: "relay_fanout over TCP loopback with queries submitted and removed while tuples flow: sockets make " +
			"simnet the largest layer, and registration runs beside matching (writes beside reads)",
		TCP: true, Entities: 12, Procs: 2, Churn: true,
		SatTuplesPerSec: 950_000, PacedTuplesPerSec: 100_000,
		Queries: fanoutQueries(12),
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
