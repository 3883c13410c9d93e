package querygraph

import (
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := New()
	g.AddVertex("a", 2)
	g.AddVertex("b", 3)
	g.AddVertex("c", -1) // clamped to 0
	if !g.Has("a") || g.Has("z") {
		t.Error("Has wrong")
	}
	if g.NumVertices() != 3 {
		t.Errorf("n = %d", g.NumVertices())
	}
	if g.VertexWeight("a") != 2 || g.VertexWeight("c") != 0 || g.VertexWeight("z") != 0 {
		t.Error("weights wrong")
	}
	if g.TotalVertexWeight() != 5 {
		t.Errorf("total = %v", g.TotalVertexWeight())
	}
	g.SetVertexWeight("a", 7)
	if g.VertexWeight("a") != 7 {
		t.Error("SetVertexWeight failed")
	}
	g.SetVertexWeight("z", 1) // no-op on missing vertex
	if g.Has("z") {
		t.Error("SetVertexWeight created vertex")
	}
	g.SetVertexWeight("a", -1)
	if g.VertexWeight("a") != 0 {
		t.Error("negative weight not clamped")
	}
	vs := g.Vertices()
	if len(vs) != 3 || vs[0] != "a" || vs[1] != "b" || vs[2] != "c" {
		t.Errorf("vertices = %v", vs)
	}
}

func TestGraphEdges(t *testing.T) {
	g := New()
	g.AddVertex("a", 1)
	g.AddVertex("b", 1)
	if err := g.SetEdge("a", "a", 1); err == nil {
		t.Error("self-edge accepted")
	}
	if err := g.SetEdge("a", "z", 1); err == nil {
		t.Error("edge to missing vertex accepted")
	}
	if err := g.SetEdge("z", "a", 1); err == nil {
		t.Error("edge from missing vertex accepted")
	}
	if err := g.SetEdge("a", "b", 4); err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight("a", "b") != 4 || g.EdgeWeight("b", "a") != 4 {
		t.Error("edge not symmetric")
	}
	// Non-positive weight removes.
	if err := g.SetEdge("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight("a", "b") != 0 {
		t.Error("edge not removed")
	}
}

func TestGraphRemoveVertex(t *testing.T) {
	g := New()
	g.AddVertex("a", 1)
	g.AddVertex("b", 1)
	g.AddVertex("c", 1)
	g.SetEdge("a", "b", 2)
	g.SetEdge("b", "c", 3)
	g.RemoveVertex("b")
	if g.Has("b") || g.NumVertices() != 2 {
		t.Error("vertex not removed")
	}
	if g.EdgeWeight("a", "b") != 0 || g.EdgeWeight("c", "b") != 0 {
		t.Error("incident edges survived")
	}
	g.RemoveVertex("zz") // no-op
}

func TestGraphNeighborsSorted(t *testing.T) {
	g := New()
	for _, v := range []VertexID{"a", "c", "b", "d"} {
		g.AddVertex(v, 1)
	}
	g.SetEdge("a", "c", 1)
	g.SetEdge("a", "b", 2)
	g.SetEdge("a", "d", 3)
	var order []VertexID
	g.Neighbors("a", func(nb VertexID, w float64) { order = append(order, nb) })
	if len(order) != 3 || order[0] != "b" || order[1] != "c" || order[2] != "d" {
		t.Errorf("neighbor order = %v", order)
	}
}

func TestGraphClone(t *testing.T) {
	g := Figure2Graph()
	c := g.Clone()
	c.SetEdge("Q1", "Q2", 99)
	c.SetVertexWeight("Q1", 99)
	if g.EdgeWeight("Q1", "Q2") != 5 || g.VertexWeight("Q1") != 3 {
		t.Error("Clone shares storage")
	}
	if c.NumVertices() != g.NumVertices() {
		t.Error("Clone vertex count")
	}
}

func TestEdgeCutAndWeights(t *testing.T) {
	g := Figure2Graph()
	a, b := Figure2PlanA(), Figure2PlanB()
	// The paper's numbers: plan (a) duplicates 8 B/s, plan (b) only 3.
	if cut := g.EdgeCut(a); cut != 8 {
		t.Errorf("plan (a) cut = %v, want 8", cut)
	}
	if cut := g.EdgeCut(b); cut != 3 {
		t.Errorf("plan (b) cut = %v, want 3", cut)
	}
	// Both plans are equally balanced.
	wa := g.PartitionWeights(a, 2)
	wb := g.PartitionWeights(b, 2)
	if Imbalance(wa) != Imbalance(wb) {
		t.Errorf("plan imbalances differ: %v vs %v", Imbalance(wa), Imbalance(wb))
	}
	if wa[0] != 7 || wa[1] != 8 {
		t.Errorf("plan (a) weights = %v", wa)
	}
}

func TestImbalance(t *testing.T) {
	if Imbalance(nil) != 1 {
		t.Error("empty imbalance")
	}
	if Imbalance([]float64{0, 0}) != 1 {
		t.Error("zero imbalance")
	}
	if got := Imbalance([]float64{2, 2}); got != 1 {
		t.Errorf("balanced = %v", got)
	}
	if got := Imbalance([]float64{3, 1}); got != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", got)
	}
}

func TestDiff(t *testing.T) {
	old := Partitioning{"a": 0, "b": 1}
	new1 := Partitioning{"a": 0, "b": 0, "c": 1}
	// b moved, c arrived.
	if got := Diff(old, new1); got != 2 {
		t.Errorf("diff = %d, want 2", got)
	}
	if got := Diff(old, old); got != 0 {
		t.Errorf("self diff = %d", got)
	}
}

func TestPartitioningClone(t *testing.T) {
	p := Partitioning{"a": 0}
	c := p.Clone()
	c["a"] = 5
	if p["a"] != 0 {
		t.Error("Clone shares storage")
	}
}

// Property: EdgeCut is invariant under partition renumbering.
func TestEdgeCutRenumberInvariantProperty(t *testing.T) {
	g := Figure2Graph()
	f := func(bits uint8) bool {
		p := make(Partitioning)
		for i, v := range g.Vertices() {
			p[v] = int(bits>>i) & 1
		}
		flipped := make(Partitioning)
		for v, part := range p {
			flipped[v] = 1 - part
		}
		return g.EdgeCut(p) == g.EdgeCut(flipped)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// EdgeWeight returns the weight of edge {a,b} (0 when absent).
func (g *Graph) EdgeWeight(a, b VertexID) float64 {
	return g.adj[a][b]
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New()
	for id, w := range g.weights {
		out.AddVertex(id, w)
	}
	for a, nbs := range g.adj {
		for b, w := range nbs {
			if a < b {
				out.adj[a][b] = w
				out.adj[b][a] = w
			}
		}
	}
	return out
}
