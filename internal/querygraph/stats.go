package querygraph

// ApplyLoads overwrites graph vertex weights with measured query loads
// — how the cluster stats plane (DESIGN.md §9) replaces the static
// estimates the graph is otherwise built from. Vertices without a
// measurement keep their current (nominal) weight, so a partially
// warmed-up cluster degrades gracefully to the static graph.
// It returns the number of vertices updated.
func ApplyLoads(g *Graph, loads map[string]float64) int {
	updated := 0
	for id, w := range loads {
		if w < 0 {
			continue
		}
		if g.Has(VertexID(id)) {
			g.SetVertexWeight(VertexID(id), w)
			updated++
		}
	}
	return updated
}
