// Package simnet provides the communication substrate of sspd. The paper
// assumes entities are spread over a wide-area network while processors
// inside an entity share a fast local network; simnet substitutes a
// measurable equivalent: nodes carry synthetic 2-D coordinates that the
// trees are built by, and every byte on every link is metered — the
// currency in which the paper's communication costs are expressed.
// Delay, loss and reordering are per-link FaultPlan rules.
//
// Two Transport implementations share one interface: SimNet delivers
// in-process (deterministic byte accounting) and TCPNet sends over real
// sockets via the stdlib net package, exercising the identical code
// paths the paper planned to "deploy onto real network environment".
package simnet

import (
	"math"
)

// Point is a location in the synthetic 2-D coordinate space standing in
// for geography. The coordinator tree's "geographical center" selection
// and locality-aware dissemination trees operate on these.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two points.
func (p Point) Distance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// CenterIndex returns the index of the point minimizing the maximum
// distance to the others (the 1-center on the given candidates), the
// "geographical center" rule used when picking cluster parents. It
// returns -1 for an empty slice.
func CenterIndex(pts []Point) int {
	if len(pts) == 0 {
		return -1
	}
	best, bestRadius := 0, math.Inf(1)
	for i, p := range pts {
		if r := Radius(p, pts); r < bestRadius {
			best, bestRadius = i, r
		}
	}
	return best
}

// Radius returns the maximum distance from center to any point.
func Radius(center Point, pts []Point) float64 {
	r := 0.0
	for _, p := range pts {
		if d := center.Distance(p); d > r {
			r = d
		}
	}
	return r
}
