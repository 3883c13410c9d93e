// Package dissemination implements Section 3.1 of the paper: entities
// cooperate to move source streams to everyone who needs them. Entities
// form one dissemination tree per stream (the source at the root, each
// parent relaying to a bounded number of children), register their
// aggregated data interest with their parent, and ancestors filter early
// so a subtree that wants 5% of a stream receives 5% of it.
//
// Three tree shapes are provided for the E1 ablation: SourceDirect (the
// paper's non-cooperative baseline where the source feeds every entity),
// Balanced (fanout-bounded BFS layers), and Locality (greedy
// closest-parent attachment, the shape that exploits the coordinate
// space).
package dissemination

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sspd/internal/simnet"
)

// Strategy selects a tree-construction algorithm.
type Strategy int

// Tree-construction strategies.
const (
	// SourceDirect attaches every entity directly to the source.
	SourceDirect Strategy = iota
	// Balanced fills fanout-bounded levels in member order.
	Balanced
	// Locality greedily attaches each member to the nearest node that
	// still has fanout room.
	Locality
)

// String names the strategy for experiment output.
func (s Strategy) String() string {
	switch s {
	case SourceDirect:
		return "source-direct"
	case Balanced:
		return "balanced"
	case Locality:
		return "locality"
	default:
		return "unknown"
	}
}

// Member is one participant (entity wrapper) placed in the coordinate
// space.
type Member struct {
	ID  simnet.NodeID
	Pos simnet.Point
}

// Tree is the dissemination tree of one stream: a rooted tree over the
// source and the subscribing entities.
type Tree struct {
	// mu guards the structure: relays read it on every batch while the
	// dynamic-reorganization methods mutate it.
	mu       sync.RWMutex
	stream   string
	source   simnet.NodeID
	parent   map[simnet.NodeID]simnet.NodeID
	children map[simnet.NodeID][]simnet.NodeID
	pos      map[simnet.NodeID]simnet.Point
	// version counts structural mutations; relays cache their children
	// slice between batches and revalidate against it, so the hot path
	// skips Children's per-call copy.
	version atomic.Uint64
}

// Version returns a counter bumped on every structural mutation: an
// unchanged version guarantees an unchanged parent/children structure.
func (t *Tree) Version() uint64 { return t.version.Load() }

// Build constructs a dissemination tree for the named stream. fanout
// bounds each node's children for Balanced and Locality (minimum 1);
// SourceDirect ignores it.
func Build(streamName string, source Member, members []Member, strategy Strategy, fanout int) (*Tree, error) {
	if streamName == "" {
		return nil, fmt.Errorf("dissemination: empty stream name")
	}
	if source.ID == "" {
		return nil, fmt.Errorf("dissemination: stream %q needs a source", streamName)
	}
	if fanout < 1 {
		fanout = 1
	}
	t := &Tree{
		stream:   streamName,
		source:   source.ID,
		parent:   make(map[simnet.NodeID]simnet.NodeID),
		children: make(map[simnet.NodeID][]simnet.NodeID),
		pos:      map[simnet.NodeID]simnet.Point{source.ID: source.Pos},
	}
	ordered := make([]Member, len(members))
	copy(ordered, members)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, m := range ordered {
		if m.ID == source.ID {
			return nil, fmt.Errorf("dissemination: member %q duplicates the source", m.ID)
		}
		if _, dup := t.pos[m.ID]; dup {
			return nil, fmt.Errorf("dissemination: duplicate member %q", m.ID)
		}
		t.pos[m.ID] = m.Pos
	}

	switch strategy {
	case SourceDirect:
		for _, m := range ordered {
			t.attach(m.ID, source.ID)
		}
	case Balanced:
		// BFS fill: the source takes the first `fanout` members, each
		// of those the next `fanout`, and so on.
		queue := []simnet.NodeID{source.ID}
		idx := 0
		for idx < len(ordered) {
			p := queue[0]
			queue = queue[1:]
			for f := 0; f < fanout && idx < len(ordered); f++ {
				id := ordered[idx].ID
				idx++
				t.attach(id, p)
				queue = append(queue, id)
			}
		}
	case Locality:
		// Attach members nearest-to-source first so good relay points
		// exist early; each picks the closest node with fanout room.
		byDist := make([]Member, len(ordered))
		copy(byDist, ordered)
		sort.SliceStable(byDist, func(i, j int) bool {
			di := byDist[i].Pos.Distance(source.Pos)
			dj := byDist[j].Pos.Distance(source.Pos)
			if di != dj {
				return di < dj
			}
			return byDist[i].ID < byDist[j].ID
		})
		attached := []simnet.NodeID{source.ID}
		for _, m := range byDist {
			best := simnet.NodeID("")
			bestD := 0.0
			for _, cand := range attached {
				if len(t.children[cand]) >= fanout {
					continue
				}
				d := t.pos[cand].Distance(m.Pos)
				if best == "" || d < bestD || (d == bestD && cand < best) {
					best, bestD = cand, d
				}
			}
			if best == "" {
				// All full (can only happen with tiny fanout): fall
				// back to the shallowest node, ignoring the bound.
				best = t.shallowest(attached)
			}
			t.attach(m.ID, best)
			attached = append(attached, m.ID)
		}
	default:
		return nil, fmt.Errorf("dissemination: unknown strategy %d", strategy)
	}
	return t, nil
}

func (t *Tree) attach(child, parent simnet.NodeID) {
	t.parent[child] = parent
	t.children[parent] = append(t.children[parent], child)
	t.version.Add(1)
}

func (t *Tree) shallowest(ids []simnet.NodeID) simnet.NodeID {
	best := ids[0]
	bestD := t.depthLocked(best)
	for _, id := range ids[1:] {
		if d := t.depthLocked(id); d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best
}

// Has reports whether id is a member (the source is not a member).
func (t *Tree) Has(id simnet.NodeID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.parent[id]
	return ok
}

// Stream returns the stream the tree disseminates.
func (t *Tree) Stream() string { return t.stream }

// Source returns the root node.
func (t *Tree) Source() simnet.NodeID { return t.source }

// Parent returns a node's parent ("" for the source or unknown nodes).
func (t *Tree) Parent(id simnet.NodeID) simnet.NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parent[id]
}

// Children returns a copy of a node's children.
func (t *Tree) Children(id simnet.NodeID) []simnet.NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ch := t.children[id]
	out := make([]simnet.NodeID, len(ch))
	copy(out, ch)
	return out
}

// Members returns all non-source nodes in sorted order.
func (t *Tree) Members() []simnet.NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]simnet.NodeID, 0, len(t.parent))
	for id := range t.parent {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *Tree) depthLocked(id simnet.NodeID) int {
	d := 0
	for id != t.source {
		p, ok := t.parent[id]
		if !ok {
			return -1
		}
		id = p
		d++
	}
	return d
}

// MaxDepth returns the deepest member's depth.
func (t *Tree) MaxDepth() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	max := 0
	for id := range t.parent {
		if d := t.depthLocked(id); d > max {
			max = d
		}
	}
	return max
}

// MaxFanout returns the largest child count of any node — the bound on
// per-node relay work the paper's cooperation establishes.
func (t *Tree) MaxFanout() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	max := 0
	for _, ch := range t.children {
		if len(ch) > max {
			max = len(ch)
		}
	}
	return max
}

// TotalEdgeLength sums the Euclidean length of every tree edge, the
// locality cost the Locality strategy minimizes greedily.
func (t *Tree) TotalEdgeLength() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sum := 0.0
	for child, parent := range t.parent {
		sum += t.pos[child].Distance(t.pos[parent])
	}
	return sum
}

// Validate checks structural soundness: acyclic, all members reach the
// source.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id := range t.parent {
		seen := map[simnet.NodeID]bool{id: true}
		cur := id
		for cur != t.source {
			p, ok := t.parent[cur]
			if !ok {
				return fmt.Errorf("dissemination: node %q cannot reach source", id)
			}
			if seen[p] {
				return fmt.Errorf("dissemination: cycle through %q", p)
			}
			seen[p] = true
			cur = p
		}
	}
	return nil
}
