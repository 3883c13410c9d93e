package coordinator

import (
	"fmt"
	"math/rand"
	"testing"

	"sspd/internal/simnet"
)

// checkInvariants validates the full tree structure:
//   - every member is reachable from the root exactly once at level 0;
//   - every cluster's leader is a member of its own cluster;
//   - parent pointers agree with children lists;
//   - cluster sizes never exceed 3k-1, and (except the top two levels)
//     never fall below k.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.Size() == 0 {
		root, h := tr.Root()
		if root != "" || h != 0 {
			t.Fatalf("empty tree has root %q height %d", root, h)
		}
		return
	}
	root, height := tr.Root()
	if root == "" || height < 1 {
		t.Fatalf("non-empty tree has root %q height %d", root, height)
	}
	seen := make(map[MemberID]int)
	var walk func(leader MemberID, level int)
	walk = func(leader MemberID, level int) {
		ch := tr.Children(leader, level)
		if len(ch) == 0 {
			t.Fatalf("leader %s at level %d has empty cluster", leader, level)
		}
		if len(ch) > 3*tr.MinClusterSize()-1 {
			t.Fatalf("cluster %s@%d size %d exceeds 3k-1=%d",
				leader, level, len(ch), 3*tr.MinClusterSize()-1)
		}
		if level < height-1 && len(ch) < tr.MinClusterSize() && tr.Size() >= tr.MinClusterSize() {
			t.Fatalf("cluster %s@%d size %d below k=%d", leader, level, len(ch), tr.MinClusterSize())
		}
		if !containsID(ch, leader) {
			t.Fatalf("leader %s not a member of its own cluster at level %d: %v", leader, level, ch)
		}
		for _, c := range ch {
			if p, ok := tr.Parent(c, level-1); !ok || p != leader {
				t.Fatalf("parent(%s,%d) = %v, want %s", c, level-1, p, leader)
			}
			if level == 1 {
				seen[c]++
			} else {
				walk(c, level-1)
			}
		}
	}
	walk(root, height)
	if len(seen) != tr.Size() {
		t.Fatalf("walk reached %d members, tree has %d", len(seen), tr.Size())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("member %s reached %d times", id, n)
		}
	}
}

func containsID(list []MemberID, id MemberID) bool {
	for _, m := range list {
		if m == id {
			return true
		}
	}
	return false
}

func gridPoint(i int) simnet.Point {
	return simnet.Point{X: float64(i % 17 * 10), Y: float64(i / 17 * 10)}
}

func TestTreeSingleJoin(t *testing.T) {
	tr := NewTree(3)
	hops, err := tr.Join("a", simnet.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if hops != 0 {
		t.Errorf("first join hops = %d", hops)
	}
	root, h := tr.Root()
	if root != "a" || h != 1 {
		t.Errorf("root/height = %s/%d", root, h)
	}
	checkInvariants(t, tr)
	if _, err := tr.Join("a", simnet.Point{}); err == nil {
		t.Error("duplicate join accepted")
	}
}

func TestTreeGrowthMaintainsInvariants(t *testing.T) {
	tr := NewTree(3)
	for i := 0; i < 100; i++ {
		if _, err := tr.Join(MemberID(fmt.Sprintf("m%03d", i)), gridPoint(i)); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
	}
	if tr.Size() != 100 {
		t.Fatalf("size = %d", tr.Size())
	}
	_, h := tr.Root()
	if h < 2 {
		t.Errorf("height = %d, want >= 2 for 100 members with k=3", h)
	}
}

func TestTreeJoinHopsScaleWithHeight(t *testing.T) {
	tr := NewTree(2)
	maxHops := 0
	for i := 0; i < 200; i++ {
		hops, err := tr.Join(MemberID(fmt.Sprintf("m%03d", i)), gridPoint(i))
		if err != nil {
			t.Fatal(err)
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	_, h := tr.Root()
	if maxHops > h {
		t.Errorf("join hops %d exceeded height %d", maxHops, h)
	}
	// Crucially, hops stay far below N.
	if maxHops > 20 {
		t.Errorf("join hops %d not logarithmic", maxHops)
	}
}

func TestTreeLeave(t *testing.T) {
	tr := NewTree(3)
	for i := 0; i < 30; i++ {
		tr.Join(MemberID(fmt.Sprintf("m%02d", i)), gridPoint(i))
	}
	checkInvariants(t, tr)
	if err := tr.Leave("zz"); err == nil {
		t.Error("leave of unknown member accepted")
	}
	for i := 0; i < 25; i++ {
		if err := tr.Leave(MemberID(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
		checkInvariants(t, tr)
	}
	if tr.Size() != 5 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestTreeLeaveRoot(t *testing.T) {
	tr := NewTree(3)
	for i := 0; i < 40; i++ {
		tr.Join(MemberID(fmt.Sprintf("m%02d", i)), gridPoint(i))
	}
	root, _ := tr.Root()
	if err := tr.Fail(root); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	newRoot, _ := tr.Root()
	if newRoot == root || newRoot == "" {
		t.Errorf("root not replaced: %s", newRoot)
	}
	if tr.Size() != 39 {
		t.Errorf("size = %d", tr.Size())
	}
}

func TestTreeDrainToEmpty(t *testing.T) {
	tr := NewTree(2)
	for i := 0; i < 10; i++ {
		tr.Join(MemberID(fmt.Sprintf("m%d", i)), gridPoint(i))
	}
	for _, m := range tr.Members() {
		if err := tr.Leave(m); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
	}
	if tr.Size() != 0 {
		t.Fatal("tree not empty")
	}
	// Tree is reusable after draining.
	if _, err := tr.Join("again", simnet.Point{}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

func TestTreeRecenter(t *testing.T) {
	tr := NewTree(3)
	for i := 0; i < 50; i++ {
		tr.Join(MemberID(fmt.Sprintf("m%02d", i)), gridPoint(i))
	}
	checkInvariants(t, tr)
	changes := tr.Recenter()
	checkInvariants(t, tr)
	// Recentering twice should converge (second run cheaper or equal).
	changes2 := tr.Recenter()
	checkInvariants(t, tr)
	if changes2 > changes {
		t.Errorf("recenter diverging: %d then %d", changes, changes2)
	}
}

func TestTreeChurnProperty(t *testing.T) {
	// Randomized churn: joins, leaves, failures, recenters — invariants
	// must hold after every operation.
	rng := rand.New(rand.NewSource(1234))
	for _, k := range []int{2, 3, 5} {
		tr := NewTree(k)
		alive := make([]MemberID, 0, 128)
		next := 0
		for op := 0; op < 400; op++ {
			switch {
			case len(alive) == 0 || rng.Float64() < 0.55:
				id := MemberID(fmt.Sprintf("n%04d", next))
				next++
				at := simnet.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				if _, err := tr.Join(id, at); err != nil {
					t.Fatalf("k=%d op=%d join: %v", k, op, err)
				}
				alive = append(alive, id)
			case rng.Float64() < 0.9:
				i := rng.Intn(len(alive))
				id := alive[i]
				alive = append(alive[:i], alive[i+1:]...)
				if err := tr.Leave(id); err != nil {
					t.Fatalf("k=%d op=%d leave %s: %v", k, op, id, err)
				}
			default:
				tr.Recenter()
			}
			checkInvariants(t, tr)
			if tr.Size() != len(alive) {
				t.Fatalf("k=%d op=%d size %d != alive %d", k, op, tr.Size(), len(alive))
			}
		}
	}
}

func TestTreePositionAndMembers(t *testing.T) {
	tr := NewTree(3)
	tr.Join("b", simnet.Point{X: 1})
	tr.Join("a", simnet.Point{X: 2})
	ms := tr.Members()
	if len(ms) != 2 || ms[0] != "a" || ms[1] != "b" {
		t.Errorf("members = %v", ms)
	}
	if p, ok := tr.Position("b"); !ok || p.X != 1 {
		t.Error("position lookup failed")
	}
	if _, ok := tr.Position("zz"); ok {
		t.Error("position of unknown member")
	}
}

func TestRouteQueryTree(t *testing.T) {
	tr := NewTree(3)
	if _, _, err := tr.RouteQuery(simnet.Point{}, func(MemberID) float64 { return 0 }); err == nil {
		t.Error("routing on empty tree accepted")
	}
	loads := make(map[MemberID]float64)
	for i := 0; i < 60; i++ {
		id := MemberID(fmt.Sprintf("m%02d", i))
		tr.Join(id, gridPoint(i))
		loads[id] = 0
	}
	loadFn := func(id MemberID) float64 { return loads[id] }
	// Route many queries; hop count must stay bounded by height and
	// load must spread (no single entity hoards all queries).
	counts := make(map[MemberID]int)
	_, h := tr.Root()
	for q := 0; q < 300; q++ {
		origin := gridPoint(q % 60)
		target, hops, err := tr.RouteQuery(origin, loadFn)
		if err != nil {
			t.Fatal(err)
		}
		if hops > h {
			t.Fatalf("hops %d > height %d", hops, h)
		}
		counts[target]++
		loads[target]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max > 100 {
		t.Errorf("one entity got %d of 300 queries — no load spreading", max)
	}
}

func TestFlatCoordinator(t *testing.T) {
	f := NewFlat()
	if _, _, err := f.RouteQuery(simnet.Point{}, func(MemberID) float64 { return 0 }); err == nil {
		t.Error("routing with no members accepted")
	}
	if err := f.Join("a", simnet.Point{X: 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Join("a", simnet.Point{}); err == nil {
		t.Error("duplicate join accepted")
	}
	f.Join("b", simnet.Point{X: 10})
	loads := map[MemberID]float64{"a": 5, "b": 1}
	target, work, err := f.RouteQuery(simnet.Point{}, func(id MemberID) float64 { return loads[id] })
	if err != nil {
		t.Fatal(err)
	}
	if target != "b" {
		t.Errorf("target = %s, want least-loaded b", target)
	}
	if work != 2 {
		t.Errorf("work = %d, want full scan of 2", work)
	}
	// Tie on load: closest wins.
	loads["a"], loads["b"] = 1, 1
	target, _, _ = f.RouteQuery(simnet.Point{X: 9}, func(id MemberID) float64 { return loads[id] })
	if target != "b" {
		t.Errorf("tie-break target = %s, want closest b", target)
	}
}

func TestTreeRouteWorkBeatsFlat(t *testing.T) {
	// The scalability claim: per-query coordinator work is O(height·k)
	// for the tree versus O(N) for the flat coordinator.
	tr := NewTree(3)
	fl := NewFlat()
	n := 300
	for i := 0; i < n; i++ {
		id := MemberID(fmt.Sprintf("m%03d", i))
		at := gridPoint(i)
		tr.Join(id, at)
		fl.Join(id, at)
	}
	zero := func(MemberID) float64 { return 0 }
	_, treeWork, err := tr.RouteQuery(simnet.Point{X: 50, Y: 50}, zero)
	if err != nil {
		t.Fatal(err)
	}
	_, flatWork, err := fl.RouteQuery(simnet.Point{X: 50, Y: 50}, zero)
	if err != nil {
		t.Fatal(err)
	}
	if flatWork != n {
		t.Errorf("flat work = %d, want %d", flatWork, n)
	}
	if treeWork*10 > flatWork {
		t.Errorf("tree work %d not ≪ flat %d", treeWork, flatWork)
	}
}

func TestTreeEventCounters(t *testing.T) {
	tr := NewTree(2)
	// 6 joins overflow the single level-1 cluster (3k-1 = 5) -> a split.
	for i := 0; i < 6; i++ {
		id := MemberID(fmt.Sprintf("m%d", i))
		if _, err := tr.Join(id, simnet.Point{X: float64(i * 10), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	ev := tr.Events()
	if ev.Joins != 6 {
		t.Fatalf("Joins = %d, want 6", ev.Joins)
	}
	if ev.Splits == 0 {
		t.Fatal("overflowing cluster must count a split")
	}
	if err := tr.Leave("m5"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Fail("m4"); err != nil {
		t.Fatal(err)
	}
	ev = tr.Events()
	if ev.Leaves != 1 || ev.Fails != 1 {
		t.Fatalf("Leaves = %d Fails = %d, want 1 and 1", ev.Leaves, ev.Fails)
	}
	// Removing members shrank a cluster below k: normalize merged it.
	if ev.Merges == 0 {
		t.Fatal("underflow after removals must count a merge")
	}
	// A recenter opportunity: move nothing, just force Recenter to run;
	// count must equal its return value.
	if got := tr.Recenter(); int64(got) != tr.Events().Recenters {
		t.Fatalf("Recenter returned %d but counter is %d", got, tr.Events().Recenters)
	}
	checkInvariants(t, tr)
}

// MinClusterSize returns k, the lower cluster bound.
func (t *Tree) MinClusterSize() int { return t.k }

// Position returns a member's coordinates.
func (t *Tree) Position(id MemberID) (simnet.Point, bool) {
	p, ok := t.pos[id]
	return p, ok
}

// Children returns a copy of the cluster led by id at the given level.
func (t *Tree) Children(id MemberID, level int) []MemberID {
	ch := t.children[levelKey{id, level}]
	out := make([]MemberID, len(ch))
	copy(out, ch)
	return out
}

// Parent returns the leader of the cluster containing id at the given
// level.
func (t *Tree) Parent(id MemberID, level int) (MemberID, bool) {
	p, ok := t.parent[levelKey{id, level}]
	return p, ok
}
