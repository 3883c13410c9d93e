// Package querygraph implements the inter-entity load-distribution
// optimizer of Section 3.2.2: queries form a weighted graph (vertex
// weight = query load, edge weight = shared data-interest arrival rate in
// bytes/second) and allocation is balanced k-way graph partitioning
// minimizing the weighted edge cut. The package provides the graph model,
// a partitioner (greedy growth + Kernighan–Lin-style refinement), and the
// three runtime repartitioning strategies the paper contrasts: full
// Scratch repartitioning, load-only GreedyCut offloading, and the Hybrid
// in between.
package querygraph

import (
	"fmt"
	"sort"
)

// VertexID identifies a query in the graph.
type VertexID string

// Graph is a weighted undirected graph. It is not safe for concurrent
// mutation; the allocator serializes access.
type Graph struct {
	weights map[VertexID]float64
	// adj[a][b] is the weight of edge {a,b}; stored symmetrically.
	adj map[VertexID]map[VertexID]float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		weights: make(map[VertexID]float64),
		adj:     make(map[VertexID]map[VertexID]float64),
	}
}

// AddVertex inserts or updates a vertex with the given load weight.
func (g *Graph) AddVertex(id VertexID, weight float64) {
	if weight < 0 {
		weight = 0
	}
	g.weights[id] = weight
	if g.adj[id] == nil {
		g.adj[id] = make(map[VertexID]float64)
	}
}

// RemoveVertex deletes a vertex and its incident edges. Removing an
// absent vertex is a no-op.
func (g *Graph) RemoveVertex(id VertexID) {
	if _, ok := g.weights[id]; !ok {
		return
	}
	for nb := range g.adj[id] {
		delete(g.adj[nb], id)
	}
	delete(g.adj, id)
	delete(g.weights, id)
}

// Has reports whether the vertex exists.
func (g *Graph) Has(id VertexID) bool {
	_, ok := g.weights[id]
	return ok
}

// SetEdge sets the weight of the undirected edge {a,b}. A non-positive
// weight removes the edge. Both endpoints must exist.
func (g *Graph) SetEdge(a, b VertexID, weight float64) error {
	if a == b {
		return fmt.Errorf("querygraph: self-edge on %q", a)
	}
	if !g.Has(a) {
		return fmt.Errorf("querygraph: unknown vertex %q", a)
	}
	if !g.Has(b) {
		return fmt.Errorf("querygraph: unknown vertex %q", b)
	}
	if weight <= 0 {
		delete(g.adj[a], b)
		delete(g.adj[b], a)
		return nil
	}
	g.adj[a][b] = weight
	g.adj[b][a] = weight
	return nil
}

// VertexWeight returns a vertex's load weight (0 when absent).
func (g *Graph) VertexWeight(id VertexID) float64 {
	return g.weights[id]
}

// SetVertexWeight updates a vertex's load weight if it exists.
func (g *Graph) SetVertexWeight(id VertexID, weight float64) {
	if g.Has(id) {
		if weight < 0 {
			weight = 0
		}
		g.weights[id] = weight
	}
}

// Vertices returns all vertex IDs in sorted order (deterministic
// iteration matters for reproducible partitioning).
func (g *Graph) Vertices() []VertexID {
	out := make([]VertexID, 0, len(g.weights))
	for id := range g.weights {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.weights) }

// Neighbors calls fn for each neighbor of id with the edge weight, in
// sorted neighbor order.
func (g *Graph) Neighbors(id VertexID, fn func(nb VertexID, w float64)) {
	nbs := make([]VertexID, 0, len(g.adj[id]))
	for nb := range g.adj[id] {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	for _, nb := range nbs {
		fn(nb, g.adj[id][nb])
	}
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() float64 {
	sum := 0.0
	for _, w := range g.weights {
		sum += w
	}
	return sum
}

// Partitioning assigns each vertex to a partition index in [0, k).
type Partitioning map[VertexID]int

// EdgeCut returns the total weight of edges whose endpoints lie in
// different partitions — the duplicate dissemination cost the paper
// minimizes.
func (g *Graph) EdgeCut(p Partitioning) float64 {
	// Sorted iteration makes the floating-point summation order (and so
	// the exact result) deterministic, which keeps tie-breaking in the
	// partitioners reproducible.
	cut := 0.0
	for _, a := range g.Vertices() {
		g.Neighbors(a, func(b VertexID, w float64) {
			if a < b && p[a] != p[b] {
				cut += w
			}
		})
	}
	return cut
}

// PartitionWeights returns the total vertex weight per partition.
func (g *Graph) PartitionWeights(p Partitioning, k int) []float64 {
	out := make([]float64, k)
	for _, v := range g.Vertices() {
		if part, ok := p[v]; ok && part >= 0 && part < k {
			out[part] += g.weights[v]
		}
	}
	return out
}

// Imbalance returns max(weights)/avg(weights); 1.0 is perfect balance.
// An empty or zero-weight input returns 1.
func Imbalance(weights []float64) float64 {
	if len(weights) == 0 {
		return 1
	}
	sum, max := 0.0, 0.0
	for _, w := range weights {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 1
	}
	avg := sum / float64(len(weights))
	return max / avg
}

// Diff counts the vertices whose assignment differs between two
// partitionings — the number of query migrations a repartitioning incurs.
func Diff(old, new Partitioning) int {
	n := 0
	for v, p := range new {
		if op, ok := old[v]; !ok || op != p {
			n++
		}
	}
	return n
}

// Figure2Graph builds the 5-query example of the paper's Figure 2: the
// weighted query graph for which allocating {Q3,Q4} to one entity (plan
// a) duplicates 8 bytes/second of dissemination while allocating {Q3,Q5}
// (plan b) duplicates only 3 — even though Q3 and Q5 share no data
// interest at all. Plan (a) and (b) have identical load balance.
func Figure2Graph() *Graph {
	g := New()
	g.AddVertex("Q1", 3)
	g.AddVertex("Q2", 3)
	g.AddVertex("Q3", 5)
	g.AddVertex("Q4", 2)
	g.AddVertex("Q5", 2)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.SetEdge("Q1", "Q2", 5))
	must(g.SetEdge("Q2", "Q4", 7))
	must(g.SetEdge("Q3", "Q4", 2))
	must(g.SetEdge("Q4", "Q5", 1))
	return g
}

// Figure2PlanA returns the paper's plan (a): {Q3,Q4} vs the rest.
func Figure2PlanA() Partitioning {
	return Partitioning{"Q3": 0, "Q4": 0, "Q1": 1, "Q2": 1, "Q5": 1}
}

// Figure2PlanB returns the paper's plan (b): {Q3,Q5} vs the rest.
func Figure2PlanB() Partitioning {
	return Partitioning{"Q3": 0, "Q5": 0, "Q1": 1, "Q2": 1, "Q4": 1}
}
