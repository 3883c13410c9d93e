// sspd-workload inspects the synthetic workload generators: sample
// tuples, symbol-popularity skew, and the interest-overlap structure of
// a generated query stream (the input to the query-graph partitioner).
package main

import (
	"flag"
	"fmt"
	"sort"

	"sspd"
	"sspd/internal/core"
	"sspd/internal/querygraph"
	"sspd/internal/workload"
)

func main() {
	symbols := flag.Int("symbols", 100, "symbol universe size")
	skew := flag.Float64("skew", 1.3, "zipf skew (>1)")
	tuples := flag.Int("tuples", 5000, "tuples to sample")
	queries := flag.Int("queries", 60, "queries to generate")
	groups := flag.Int("groups", 4, "interest communities")
	overlap := flag.Float64("overlap", 0.3, "cross-community overlap probability")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	tick := sspd.NewTicker(*seed, *symbols, *skew)
	fmt.Printf("ticker: %d symbols, skew %.2f — sample:\n", *symbols, *skew)
	for i := 0; i < 5; i++ {
		fmt.Printf("  %v\n", tick.Next())
	}

	counts := map[string]int{}
	for i := 0; i < *tuples; i++ {
		tu := tick.Next()
		counts[tu.Value(0).AsString()]++
	}
	type sc struct {
		sym string
		n   int
	}
	var top []sc
	for s, n := range counts {
		top = append(top, sc{s, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n })
	fmt.Printf("\nsymbol popularity over %d tuples (top 8 of %d seen):\n", *tuples, len(top))
	for i := 0; i < 8 && i < len(top); i++ {
		fmt.Printf("  %-6s %5d (%.1f%%)\n", top[i].sym, top[i].n,
			100*float64(top[i].n)/float64(*tuples))
	}

	catalog := workload.Catalog(*symbols, 20)
	qgen := sspd.NewQueryGen(*seed, tick.Symbols(), *groups, *overlap)
	specs := qgen.Specs(*queries)
	fmt.Printf("\nquery stream: %d queries in %d interest groups (overlap %.2f) — sample:\n",
		*queries, *groups, *overlap)
	scQuotes, _ := catalog.Lookup("quotes")
	for i := 0; i < 3; i++ {
		in := specs[i].Interest("quotes", scQuotes)
		fmt.Printf("  %s load=%.1f interest=%s (sel %.4f)\n",
			specs[i].ID, specs[i].Load, in, in.Selectivity(scQuotes))
	}

	rates := map[string]core.StreamRate{
		"quotes": {TuplesPerSec: 1000, BytesPerTuple: 60},
		"trades": {TuplesPerSec: 500, BytesPerTuple: 40},
	}
	g := core.BuildQueryGraph(specs, catalog, rates)
	edges, weight := 0, 0.0
	for _, v := range g.Vertices() {
		g.Neighbors(v, func(nb querygraph.VertexID, w float64) {
			if v < nb {
				edges++
				weight += w
			}
		})
	}
	fmt.Printf("\nquery graph: %d vertices, %d edges, total overlap weight %.0f B/s\n",
		g.NumVertices(), edges, weight)
	for _, k := range []int{2, 4, 8} {
		p, err := querygraph.Partition(g, querygraph.Options{K: k})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  k=%d: edge cut %.0f B/s, imbalance %.2f\n",
			k, g.EdgeCut(p), querygraph.Imbalance(g.PartitionWeights(p, k)))
	}
}
