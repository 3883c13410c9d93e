package core

import (
	"maps"
	"slices"

	"sspd/internal/engine"
	"sspd/internal/querygraph"
	"sspd/internal/stream"
)

// StreamRate is the nominal data rate of one stream, used to weight
// query-graph edges in bytes/second as the paper specifies.
type StreamRate struct {
	// TuplesPerSec is the stream's arrival rate.
	TuplesPerSec float64
	// BytesPerTuple is the average encoded tuple size.
	BytesPerTuple float64
}

// BytesPerSec returns the stream's byte rate.
func (r StreamRate) BytesPerSec() float64 { return r.TuplesPerSec * r.BytesPerTuple }

// BuildQueryGraph constructs the weighted query graph of Section 3.2.2
// from query specs: vertices weighted by estimated load, edges weighted
// by the byte rate of data interesting to both endpoints (stream rate ×
// interest-overlap fraction, summed over shared streams). Pairs with no
// shared interest get no edge.
func BuildQueryGraph(specs []engine.QuerySpec, catalog *stream.Catalog,
	rates map[string]StreamRate) *querygraph.Graph {
	g := querygraph.New()
	type interestOn struct {
		spec     engine.QuerySpec
		interest map[string]stream.Interest
	}
	items := make([]interestOn, 0, len(specs))
	for _, spec := range specs {
		g.AddVertex(querygraph.VertexID(spec.ID), spec.EstimatedLoad())
		in := make(map[string]stream.Interest)
		for _, s := range spec.Streams() {
			if sc, ok := catalog.Lookup(s); ok {
				in[s] = spec.Interest(s, sc)
			}
		}
		items = append(items, interestOn{spec: spec, interest: in})
	}
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			w := 0.0
			for s, ia := range items[i].interest {
				ib, ok := items[j].interest[s]
				if !ok {
					continue
				}
				sc, ok := catalog.Lookup(s)
				if !ok {
					continue
				}
				rate, ok := rates[s]
				if !ok {
					continue
				}
				w += rate.BytesPerSec() * stream.Overlap(ia, ib, sc)
			}
			if w > 0 {
				// Both vertices exist; SetEdge cannot fail here.
				_ = g.SetEdge(querygraph.VertexID(items[i].spec.ID),
					querygraph.VertexID(items[j].spec.ID), w)
			}
		}
	}
	return g
}

// QueryGraph builds the query graph of the active queries: the one graph
// the sspd_edge_cut gauge, GET /stats, Rebalance and the adaptation
// controller all read. Edges are weighted with the nominal stream rates
// and vertices with the specs' estimated loads, except where the stats
// plane has measured better: a measured source arrival rate replaces a
// stream's nominal tuples/sec (its bytes/tuple stays nominal), and a
// query load from the root digest replaces a vertex weight.
func (f *Federation) QueryGraph() *querygraph.Graph {
	g, _ := f.queryGraph()
	return g
}

// queryGraph builds the query graph and returns the stream rates its
// edges were weighted with, so a migration's cost is priced in the same
// rates as its gain.
func (f *Federation) queryGraph() (*querygraph.Graph, map[string]StreamRate) {
	f.mu.Lock()
	specs := make([]engine.QuerySpec, 0, len(f.queries))
	for _, id := range slices.Sorted(maps.Keys(f.queries)) {
		specs = append(specs, f.queries[id].spec)
	}
	rates := maps.Clone(f.rates)
	f.mu.Unlock()
	for s, tps := range f.streamRates() {
		if r, ok := rates[s]; ok && tps > 0 {
			r.TuplesPerSec = tps
			rates[s] = r
		}
	}
	g := BuildQueryGraph(specs, f.catalog, rates)
	querygraph.ApplyLoads(g, f.queryLoads())
	return g, rates
}
