// Package sspd is a scalable and adaptable distributed stream processing
// system, reproducing the architecture of "Scalable and Adaptable
// Distributed Stream Processing" (Yongluan Zhou, ICDE 2006).
//
// The system has two layers:
//
//   - The inter-entity layer federates independent, loosely-coupled
//     business entities. Entities cooperate only through declarative
//     artifacts: data streams relayed down per-stream dissemination trees
//     with interest-based early filtering, and continuous queries
//     distributed as QuerySpecs through a hierarchical coordinator tree
//     and optimized by balanced query-graph partitioning that minimizes
//     duplicate dissemination (bytes/second of shared data interest).
//   - The intra-entity layer is a tightly-coupled cluster: each incoming
//     stream has a delegation processor, queries split into fragments
//     placed across processors to minimize the worst Performance Ratio
//     (delay over inherent processing time), and an Adaptation Module
//     re-orders commutable operators as selectivities drift.
//
// The root package is a facade over the internal packages; see README.md
// for the architecture map and EXPERIMENTS.md for the reproduced
// experiments.
//
// # Quick start
//
//	net := sspd.NewSimNet(nil)
//	catalog := sspd.NewCatalog(100, 20)
//	fed, _ := sspd.NewFederation(net, catalog, sspd.Options{})
//	fed.AddSource("quotes", sspd.Point{}, sspd.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60})
//	fed.AddEntity("acme", sspd.Point{X: 10}, 4, nil)
//	fed.Start()
//	fed.SubmitQuery(spec, sspd.Point{X: 12}, func(t sspd.Tuple) { fmt.Println(t) })
//
// A result is lent to the callback: the tuple and its Values are valid
// for the length of the call, and a callback that keeps one keeps
// t.Clone(). The rule is engine.Processor's point 6; it lets an engine
// run every query but a join over a pooled copy of its input and hand
// out results without copying them.
package sspd
