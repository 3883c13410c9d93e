// Package coordinator implements the hierarchical coordinator tree of
// Section 3.2.1, adapted from Banerjee et al.'s scalable application
// layer multicast (SIGCOMM'02): coordinators form clusters of size
// [k, 3k-1] (except near the root), each cluster's parent is its
// geographical center, and the tree maintains itself incrementally under
// joins, leaves, failures, splits, merges, and re-centering. Query
// streams are routed level by level down this tree, so no single
// coordinator handles more than O(k) peers regardless of federation
// size — the property the query-distribution experiment (E3) measures.
//
// Representation: level 0 holds all members. A member that leads a
// cluster of level-(l-1) nodes appears at level l; the cluster is stored
// as children[(leader, l)] and always contains the leader's own level-
// (l-1) presence. The root leads the single top cluster at level
// `height`.
package coordinator

import (
	"fmt"
	"sort"

	"sspd/internal/metrics"
	"sspd/internal/simnet"
)

// MemberID identifies a participant (an entity's wrapper node).
type MemberID string

// Tree is the coordinator hierarchy. It is a deterministic single-owner
// structure; the federation layer serializes access.
type Tree struct {
	k        int
	pos      map[MemberID]simnet.Point
	children map[levelKey][]MemberID
	parent   map[levelKey]MemberID
	root     MemberID
	height   int

	// events counts structural operations since construction. Counters
	// are atomic so a metrics scrape may read them while the federation
	// goroutine mutates the tree.
	events struct {
		joins     metrics.Counter
		leaves    metrics.Counter
		fails     metrics.Counter
		splits    metrics.Counter
		merges    metrics.Counter
		recenters metrics.Counter
	}

	// sink, when set, observes structural operations the tree decides on
	// its own (splits, merges, re-centerings) — joins/leaves/failures are
	// driven, and therefore journaled, by the caller.
	sink EventSink
}

// EventSink observes tree-internal structural operations. op is one of
// "split", "merge", "recenter"; leader identifies the cluster involved
// (the pre-operation leader) at the given level. Called synchronously
// under the tree owner's serialization; keep it cheap.
type EventSink func(op string, leader MemberID, level int)

// SetEventSink installs the structural-event observer (nil disables).
func (t *Tree) SetEventSink(s EventSink) { t.sink = s }

func (t *Tree) emit(op string, leader MemberID, level int) {
	if t.sink != nil {
		t.sink(op, leader, level)
	}
}

// StatsParent returns the next hop up the stats-aggregation overlay from
// id: the leader of the lowest-level cluster that contains id but is not
// led by id. Leaders thus skip the levels they lead themselves, and the
// root (which leads every cluster on its chain) gets ok=false — it is
// where digests stop. Unknown members also return ok=false.
func (t *Tree) StatsParent(id MemberID) (MemberID, bool) {
	if _, known := t.pos[id]; !known {
		return "", false
	}
	for level := 0; level <= t.height; level++ {
		if p, ok := t.parent[levelKey{id, level}]; ok && p != id {
			return p, true
		}
	}
	return "", false
}

// Events is a point-in-time snapshot of the tree's maintenance activity:
// how many joins, polite leaves, failures, cluster splits, cluster
// merges, and leadership re-centerings have happened.
type Events struct {
	Joins     int64
	Leaves    int64
	Fails     int64
	Splits    int64
	Merges    int64
	Recenters int64
}

// Events returns the operation counters. Safe to call concurrently with
// tree mutations.
func (t *Tree) Events() Events {
	return Events{
		Joins:     t.events.joins.Value(),
		Leaves:    t.events.leaves.Value(),
		Fails:     t.events.fails.Value(),
		Splits:    t.events.splits.Value(),
		Merges:    t.events.merges.Value(),
		Recenters: t.events.recenters.Value(),
	}
}

type levelKey struct {
	id    MemberID
	level int
}

// NewTree returns an empty tree with cluster parameter k (clusters hold
// between k and 3k-1 children; k < 2 is raised to 2).
func NewTree(k int) *Tree {
	if k < 2 {
		k = 2
	}
	return &Tree{
		k:        k,
		pos:      make(map[MemberID]simnet.Point),
		children: make(map[levelKey][]MemberID),
		parent:   make(map[levelKey]MemberID),
	}
}

// Size returns the number of members.
func (t *Tree) Size() int { return len(t.pos) }

// Root returns the root coordinator ("" when empty) and the tree height.
func (t *Tree) Root() (MemberID, int) { return t.root, t.height }

// Members returns all members in sorted order.
func (t *Tree) Members() []MemberID {
	out := make([]MemberID, 0, len(t.pos))
	for id := range t.pos {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Join adds a member, routing the join request from the root down to a
// level-1 cluster: each coordinator forwards the request to its child
// coordinator closest to the joiner (paper rule 1). It returns the
// number of coordinators contacted — the measurable routing cost of a
// join.
func (t *Tree) Join(id MemberID, at simnet.Point) (hops int, err error) {
	if _, dup := t.pos[id]; dup {
		return 0, fmt.Errorf("coordinator: member %q already joined", id)
	}
	t.pos[id] = at
	t.events.joins.Inc()
	if t.root == "" {
		t.root = id
		t.height = 1
		t.children[levelKey{id, 1}] = []MemberID{id}
		t.parent[levelKey{id, 0}] = id
		return 0, nil
	}
	cur := t.root
	level := t.height
	hops = 1
	for level > 1 {
		best := MemberID("")
		bestD := 0.0
		for _, c := range t.children[levelKey{cur, level}] {
			d := t.pos[c].Distance(at)
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
	key := levelKey{cur, 1}
	t.children[key] = append(t.children[key], id)
	t.parent[levelKey{id, 0}] = cur
	t.splitIfNeeded(cur, 1)
	return hops, nil
}

// Leave removes a member (paper rule 2): it departs its level-0 cluster
// and every leadership role it held; clusters it led elect new centers,
// and underflowing clusters merge with their closest sibling (rule 4).
func (t *Tree) Leave(id MemberID) error { return t.remove(id, false) }

// Fail handles a member that stopped sending heartbeats. State cleanup
// is identical to a polite leave; the tree only counts them apart so the
// observability layer can tell churn from crashes.
func (t *Tree) Fail(id MemberID) error { return t.remove(id, true) }

func (t *Tree) remove(id MemberID, failed bool) error {
	if _, ok := t.pos[id]; !ok {
		return fmt.Errorf("coordinator: unknown member %q", id)
	}
	if failed {
		t.events.fails.Inc()
	} else {
		t.events.leaves.Inc()
	}
	delete(t.pos, id)
	if len(t.pos) == 0 {
		t.root = ""
		t.height = 0
		t.children = make(map[levelKey][]MemberID)
		t.parent = make(map[levelKey]MemberID)
		return nil
	}
	p, ok := t.parent[levelKey{id, 0}]
	if ok {
		pk := levelKey{p, 1}
		t.children[pk] = removeMember(t.children[pk], id)
		delete(t.parent, levelKey{id, 0})
		if p == id {
			t.handleLeaderGone(id, 1)
		}
	}
	t.normalize()
	return nil
}

// handleLeaderGone repairs the cluster at the given level after its
// leader x vanished from the member list (already removed). A successor
// is elected among the remaining members and inherits x's membership at
// this level; an empty cluster dissolves and x's membership is demoted.
func (t *Tree) handleLeaderGone(x MemberID, level int) {
	key := levelKey{x, level}
	remaining := t.children[key]
	delete(t.children, key)
	if len(remaining) == 0 {
		t.demote(x, level)
		return
	}
	s := t.centerOf(remaining)
	t.children[levelKey{s, level}] = remaining
	for _, c := range remaining {
		t.parent[levelKey{c, level - 1}] = s
	}
	t.replaceAt(x, s, level)
}

// replaceAt hands x's membership at the given level to s: s takes x's
// slot in the cluster one level up (or the root role).
func (t *Tree) replaceAt(x, s MemberID, level int) {
	if x == t.root && level == t.height {
		t.root = s
		return
	}
	p, ok := t.parent[levelKey{x, level}]
	if !ok {
		// x had no recorded membership (repair mid-flight); attach s
		// under the root so it stays reachable.
		if t.root != s {
			rk := levelKey{t.root, t.height}
			t.children[rk] = dedup(append(t.children[rk], s))
			t.parent[levelKey{s, t.height - 1}] = t.root
		}
		return
	}
	delete(t.parent, levelKey{x, level})
	pk := levelKey{p, level + 1}
	t.children[pk] = dedup(append(removeMember(t.children[pk], x), s))
	t.parent[levelKey{s, level}] = p
	if p == x {
		t.handleLeaderGone(x, level+1)
	}
}

// demote removes x's membership at the given level after the cluster it
// led below dissolved.
func (t *Tree) demote(x MemberID, level int) {
	if x == t.root && level == t.height {
		// The whole chain dissolved; normalize rebuilds from what's
		// left (only reachable when the tree is nearly empty).
		t.root = ""
		t.height = 0
		return
	}
	p, ok := t.parent[levelKey{x, level}]
	if !ok {
		return
	}
	delete(t.parent, levelKey{x, level})
	pk := levelKey{p, level + 1}
	t.children[pk] = removeMember(t.children[pk], x)
	if p == x {
		t.handleLeaderGone(x, level+1)
	}
}

// splitIfNeeded splits the cluster led by id at the given level when it
// exceeds 3k-1 members into two clusters of at least floor(3k/2),
// minimizing the two radii (paper rule 3).
func (t *Tree) splitIfNeeded(id MemberID, level int) {
	key := levelKey{id, level}
	ch := t.children[key]
	if len(ch) <= 3*t.k-1 {
		return
	}
	t.events.splits.Inc()
	t.emit("split", id, level)
	a, b := t.bisect(ch)
	ca, cb := t.centerOf(a), t.centerOf(b)
	delete(t.children, key)
	t.children[levelKey{ca, level}] = a
	for _, c := range a {
		t.parent[levelKey{c, level - 1}] = ca
	}
	t.children[levelKey{cb, level}] = b
	for _, c := range b {
		t.parent[levelKey{c, level - 1}] = cb
	}

	if id == t.root && level == t.height {
		// The top cluster split: the tree grows one level.
		t.height = level + 1
		top := []MemberID{ca, cb}
		newRoot := t.centerOf(top)
		t.root = newRoot
		t.children[levelKey{newRoot, level + 1}] = top
		for _, c := range top {
			t.parent[levelKey{c, level}] = newRoot
		}
		return
	}

	// id was a member one level up; the new leaders take (ca) and add
	// (cb) membership there.
	p := t.parent[levelKey{id, level}]
	pk := levelKey{p, level + 1}
	switch {
	case ca == id:
		t.children[pk] = dedup(append(t.children[pk], cb))
		t.parent[levelKey{cb, level}] = p
	case cb == id:
		t.children[pk] = dedup(append(t.children[pk], ca))
		t.parent[levelKey{ca, level}] = p
	default:
		t.children[pk] = dedup(append(t.children[pk], cb))
		t.parent[levelKey{cb, level}] = p
		t.replaceAt(id, ca, level)
	}
	// The parent cluster grew; find its current leader via cb's parent
	// (replaceAt may have re-elected it) and split recursively.
	if leader, ok := t.parent[levelKey{cb, level}]; ok {
		t.splitIfNeeded(leader, level+1)
	} else if leader, ok := t.parent[levelKey{ca, level}]; ok {
		t.splitIfNeeded(leader, level+1)
	}
}

// bisect splits a member list into two halves with small radii: the two
// mutually farthest members become poles and the rest go to the nearer
// pole, sizes kept within one of each other.
func (t *Tree) bisect(ch []MemberID) (a, b []MemberID) {
	sorted := make([]MemberID, len(ch))
	copy(sorted, ch)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var p1, p2 MemberID
	bestD := -1.0
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			d := t.pos[sorted[i]].Distance(t.pos[sorted[j]])
			if d > bestD {
				p1, p2, bestD = sorted[i], sorted[j], d
			}
		}
	}
	type scored struct {
		id    MemberID
		score float64
	}
	items := make([]scored, 0, len(sorted))
	for _, c := range sorted {
		items = append(items, scored{c, t.pos[c].Distance(t.pos[p1]) - t.pos[c].Distance(t.pos[p2])})
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].score != items[j].score {
			return items[i].score < items[j].score
		}
		return items[i].id < items[j].id
	})
	half := len(items) / 2
	for i, it := range items {
		if i < half {
			a = append(a, it.id)
		} else {
			b = append(b, it.id)
		}
	}
	return a, b
}

// centerOf returns the member minimizing the maximum distance to the
// others — the "geographical center" parent rule.
func (t *Tree) centerOf(ch []MemberID) MemberID {
	sorted := make([]MemberID, len(ch))
	copy(sorted, ch)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pts := make([]simnet.Point, len(sorted))
	for i, c := range sorted {
		pts[i] = t.pos[c]
	}
	idx := simnet.CenterIndex(pts)
	if idx < 0 {
		return ""
	}
	return sorted[idx]
}

// Recenter re-elects the center of every cluster whose leader is no
// longer the geographical center (paper rule 5) and returns the number
// of leadership changes.
func (t *Tree) Recenter() int {
	changes := 0
	for level := 1; level <= t.height; level++ {
		for _, leader := range t.leadersAt(level) {
			key := levelKey{leader, level}
			ch := t.children[key]
			if len(ch) == 0 {
				continue
			}
			center := t.centerOf(ch)
			if center == leader || !contains(ch, center) {
				continue
			}
			delete(t.children, key)
			t.children[levelKey{center, level}] = ch
			for _, c := range ch {
				t.parent[levelKey{c, level - 1}] = center
			}
			t.replaceAt(leader, center, level)
			t.events.recenters.Inc()
			t.emit("recenter", leader, level)
			changes++
		}
	}
	return changes
}

// leadersAt returns the IDs leading a non-empty cluster at a level,
// sorted for deterministic iteration.
func (t *Tree) leadersAt(level int) []MemberID {
	var out []MemberID
	for key, ch := range t.children {
		if key.level == level && len(ch) > 0 {
			out = append(out, key.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// normalize merges underflowing clusters into their closest siblings and
// collapses degenerate root levels.
func (t *Tree) normalize() {
	if len(t.pos) == 0 {
		t.root = ""
		t.height = 0
		t.children = make(map[levelKey][]MemberID)
		t.parent = make(map[levelKey]MemberID)
		return
	}
	if t.root == "" {
		// The whole leadership chain dissolved; rebuild a trivial tree
		// over the survivors (rare: only tiny trees reach this).
		survivors := t.Members()
		t.children = make(map[levelKey][]MemberID)
		t.parent = make(map[levelKey]MemberID)
		root := t.centerOf(survivors)
		t.root = root
		t.height = 1
		t.children[levelKey{root, 1}] = survivors
		for _, m := range survivors {
			t.parent[levelKey{m, 0}] = root
		}
		t.splitIfNeeded(root, 1)
		return
	}
	for level := 1; level < t.height; level++ {
		leaders := t.leadersAt(level)
		if len(leaders) < 2 {
			continue
		}
		for _, leader := range leaders {
			key := levelKey{leader, level}
			ch := t.children[key]
			if len(ch) == 0 || len(ch) >= t.k {
				continue
			}
			sibling := t.closestSibling(leader, level)
			if sibling == "" {
				continue
			}
			sk := levelKey{sibling, level}
			t.events.merges.Inc()
			t.emit("merge", leader, level)
			t.children[sk] = dedup(append(t.children[sk], ch...))
			for _, c := range ch {
				t.parent[levelKey{c, level - 1}] = sibling
			}
			delete(t.children, key)
			t.demote(leader, level)
			t.splitIfNeeded(sibling, level)
		}
	}
	// Collapse a top cluster that shrank to a single member.
	for t.height > 1 {
		rk := levelKey{t.root, t.height}
		ch := t.children[rk]
		if len(ch) != 1 {
			break
		}
		only := ch[0]
		delete(t.children, rk)
		delete(t.parent, levelKey{only, t.height - 1})
		t.root = only
		t.height--
	}
}

// closestSibling picks the nearest other cluster leader at a level.
func (t *Tree) closestSibling(leader MemberID, level int) MemberID {
	best := MemberID("")
	bestD := 0.0
	for _, s := range t.leadersAt(level) {
		if s == leader {
			continue
		}
		d := t.pos[s].Distance(t.pos[leader])
		if best == "" || d < bestD || (d == bestD && s < best) {
			best, bestD = s, d
		}
	}
	return best
}

func removeMember(list []MemberID, id MemberID) []MemberID {
	out := make([]MemberID, 0, len(list))
	for _, m := range list {
		if m != id {
			out = append(out, m)
		}
	}
	return out
}

func contains(list []MemberID, id MemberID) bool {
	for _, m := range list {
		if m == id {
			return true
		}
	}
	return false
}

func dedup(list []MemberID) []MemberID {
	seen := make(map[MemberID]bool, len(list))
	out := make([]MemberID, 0, len(list))
	for _, m := range list {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
