package coordinator

import (
	"fmt"
	"sort"

	"sspd/internal/simnet"
)

// RouteQuery distributes one query down the tree, level by level: each
// coordinator forwards to its child closest to the query's origin
// (coarse locality information, as higher levels know nothing finer),
// and the leaf-level coordinator picks the least-loaded member of its
// cluster. It returns the chosen entity and the number of coordinators
// that handled the query — the per-query work the hierarchical scheme
// spreads across the tree, versus N for a flat central coordinator.
func (t *Tree) RouteQuery(origin simnet.Point, load func(MemberID) float64) (MemberID, int, error) {
	if t.root == "" {
		return "", 0, fmt.Errorf("coordinator: empty tree")
	}
	cur := t.root
	level := t.height
	hops := 1
	for level > 1 {
		best := MemberID("")
		bestD := 0.0
		for _, c := range t.children[levelKey{cur, level}] {
			d := t.pos[c].Distance(origin)
			if best == "" || d < bestD || (d == bestD && c < best) {
				best, bestD = c, d
			}
		}
		if best == "" {
			break
		}
		cur = best
		level--
		hops++
	}
	// Leaf cluster: balance load across its members.
	members := t.children[levelKey{cur, 1}]
	if len(members) == 0 {
		return cur, hops, nil
	}
	sorted := make([]MemberID, len(members))
	copy(sorted, members)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	best := sorted[0]
	bestLoad := load(best)
	for _, m := range sorted[1:] {
		if l := load(m); l < bestLoad {
			best, bestLoad = m, l
		}
	}
	return best, hops, nil
}

// Flat is the baseline central coordinator: one node that knows every
// entity and scans all of them for every query. Simple and optimal per
// decision, but its per-query work grows linearly with the federation —
// the bottleneck the hierarchical tree removes.
type Flat struct {
	members map[MemberID]simnet.Point
}

// NewFlat returns an empty flat coordinator.
func NewFlat() *Flat {
	return &Flat{members: make(map[MemberID]simnet.Point)}
}

// Join registers an entity.
func (f *Flat) Join(id MemberID, at simnet.Point) error {
	if _, dup := f.members[id]; dup {
		return fmt.Errorf("coordinator: member %q already joined", id)
	}
	f.members[id] = at
	return nil
}

// RouteQuery picks the least-loaded entity among ALL members (ties to
// the closest), touching every entity: the returned work count equals
// the federation size.
func (f *Flat) RouteQuery(origin simnet.Point, load func(MemberID) float64) (MemberID, int, error) {
	if len(f.members) == 0 {
		return "", 0, fmt.Errorf("coordinator: no members")
	}
	ids := make([]MemberID, 0, len(f.members))
	for id := range f.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	best := ids[0]
	bestLoad := load(best)
	for _, id := range ids[1:] {
		l := load(id)
		if l < bestLoad ||
			(l == bestLoad && f.members[id].Distance(origin) < f.members[best].Distance(origin)) {
			best, bestLoad = id, l
		}
	}
	return best, len(ids), nil
}
