package dissemination

import (
	"fmt"
	"sort"

	"sspd/internal/simnet"
)

// This file implements the adaptive side of Section 3.1: "entities may
// join or leave at any time" and "the shapes of these trees have
// significant impact on the dissemination efficiency". Trees accept
// members at runtime, survive departures by re-attaching orphaned
// subtrees, and incrementally reorganize toward shorter edges — the
// coherency-preserving reorganization of the author's companion work
// (reference [13] of the paper).

// Rewire records one parent change made by a dynamic operation. The
// caller (federation layer) must tell the child's relay to re-register
// its interest with the new parent.
type Rewire struct {
	Child     simnet.NodeID
	OldParent simnet.NodeID
	NewParent simnet.NodeID
}

// AddMember attaches a new member at runtime to the closest node with
// fanout room (the Locality rule). It returns the attachment as a
// Rewire (OldParent empty).
func (t *Tree) AddMember(m Member, fanout int) (Rewire, error) {
	if fanout < 1 {
		fanout = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.ID == t.source {
		return Rewire{}, fmt.Errorf("dissemination: member %q duplicates the source", m.ID)
	}
	if _, dup := t.pos[m.ID]; dup {
		return Rewire{}, fmt.Errorf("dissemination: member %q already in the %s tree", m.ID, t.stream)
	}
	t.pos[m.ID] = m.Pos
	parent := t.closestWithRoom(m.Pos, fanout, nil)
	if parent == "" {
		parent = t.source
	}
	t.attach(m.ID, parent)
	return Rewire{Child: m.ID, NewParent: parent}, nil
}

// RemoveMember detaches a member at runtime. Its children re-attach to
// the closest remaining node with fanout room outside their own
// subtrees; the returned rewires tell the caller which relays must
// re-register. Removing the source or an unknown member is an error.
func (t *Tree) RemoveMember(id simnet.NodeID, fanout int) ([]Rewire, error) {
	if fanout < 1 {
		fanout = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == t.source {
		return nil, fmt.Errorf("dissemination: cannot remove the source of %s", t.stream)
	}
	parent, ok := t.parent[id]
	if !ok {
		return nil, fmt.Errorf("dissemination: %q not in the %s tree", id, t.stream)
	}
	t.children[parent] = removeNode(t.children[parent], id)
	t.version.Add(1)
	orphans := t.children[id]
	delete(t.children, id)
	delete(t.parent, id)
	delete(t.pos, id)

	var rewires []Rewire
	for _, o := range orphans {
		delete(t.parent, o) // detach before searching so o's subtree is well-defined
		forbidden := t.subtreeLocked(o)
		np := t.closestWithRoom(t.pos[o], fanout, forbidden)
		if np == "" {
			np = t.source
		}
		t.attach(o, np)
		rewires = append(rewires, Rewire{Child: o, OldParent: id, NewParent: np})
	}
	return rewires, nil
}

// ReorganizeStep finds the single best improving parent switch — the
// member whose distance to its parent shrinks the most by moving to the
// closest eligible node — WITHOUT applying it. ok is false when the tree
// is locally optimal.
func (t *Tree) ReorganizeStep(fanout int) (Rewire, bool) {
	if fanout < 1 {
		fanout = 1
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	members := make([]simnet.NodeID, 0, len(t.parent))
	for id := range t.parent {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	var best Rewire
	bestGain := 0.0
	for _, id := range members {
		cur := t.parent[id]
		curD := t.pos[id].Distance(t.pos[cur])
		forbidden := t.subtreeLocked(id)
		for cand := range t.pos {
			if cand == id || cand == cur || forbidden[cand] {
				continue
			}
			if len(t.children[cand]) >= fanout {
				continue
			}
			gain := curD - t.pos[id].Distance(t.pos[cand])
			if gain > bestGain ||
				(gain == bestGain && gain > 0 && (best.Child == "" || id < best.Child ||
					(id == best.Child && cand < best.NewParent))) {
				best = Rewire{Child: id, OldParent: cur, NewParent: cand}
				bestGain = gain
			}
		}
	}
	return best, bestGain > 0
}

// ApplyRewire commits a planned parent switch, re-validating that it is
// still legal (the child exists, the new parent has fanout room and is
// outside the child's subtree).
func (t *Tree) ApplyRewire(rw Rewire, fanout int) error {
	if fanout < 1 {
		fanout = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.parent[rw.Child]
	if !ok {
		return fmt.Errorf("dissemination: rewire of unknown member %q", rw.Child)
	}
	if cur != rw.OldParent {
		return fmt.Errorf("dissemination: rewire of %q expected parent %q, found %q",
			rw.Child, rw.OldParent, cur)
	}
	if _, ok := t.pos[rw.NewParent]; !ok {
		return fmt.Errorf("dissemination: rewire target %q unknown", rw.NewParent)
	}
	if len(t.children[rw.NewParent]) >= fanout {
		return fmt.Errorf("dissemination: rewire target %q is full", rw.NewParent)
	}
	if t.subtreeLocked(rw.Child)[rw.NewParent] {
		return fmt.Errorf("dissemination: rewire target %q inside %q's subtree",
			rw.NewParent, rw.Child)
	}
	t.children[cur] = removeNode(t.children[cur], rw.Child)
	t.version.Add(1)
	t.attach(rw.Child, rw.NewParent)
	return nil
}

// subtreeLocked returns the set of nodes in id's subtree (including id).
func (t *Tree) subtreeLocked(id simnet.NodeID) map[simnet.NodeID]bool {
	out := map[simnet.NodeID]bool{id: true}
	queue := []simnet.NodeID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range t.children[cur] {
			if !out[c] {
				out[c] = true
				queue = append(queue, c)
			}
		}
	}
	return out
}

// closestWithRoom finds the nearest node to pos with spare fanout,
// excluding the forbidden set (nil = none). Deterministic tie-breaks.
func (t *Tree) closestWithRoom(pos simnet.Point, fanout int, forbidden map[simnet.NodeID]bool) simnet.NodeID {
	ids := make([]simnet.NodeID, 0, len(t.pos))
	for id := range t.pos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	best := simnet.NodeID("")
	bestD := 0.0
	for _, id := range ids {
		if forbidden[id] {
			continue
		}
		if len(t.children[id]) >= fanout && id != t.source {
			continue
		}
		if id != t.source && t.parent[id] == "" {
			continue // detached node (mid-operation)
		}
		if id == t.source && len(t.children[id]) >= fanout {
			// Prefer respecting the bound at the source too, but allow
			// it as last resort (handled by the caller's fallback).
			continue
		}
		d := t.pos[id].Distance(pos)
		if best == "" || d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

func removeNode(list []simnet.NodeID, id simnet.NodeID) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(list))
	for _, n := range list {
		if n != id {
			out = append(out, n)
		}
	}
	return out
}
