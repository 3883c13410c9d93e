package coordinator

import (
	"fmt"
	"testing"
	"time"

	"sspd/internal/simnet"
)

// buildTree joins n members at distinct positions and returns the tree.
func buildTree(t *testing.T, k, n int) *Tree {
	t.Helper()
	tr := NewTree(k)
	for i := 0; i < n; i++ {
		id := MemberID(fmt.Sprintf("e%02d", i))
		if _, err := tr.Join(id, simnet.Point{X: float64(i * 7 % 13), Y: float64(i * 11 % 17)}); err != nil {
			t.Fatalf("join %s: %v", id, err)
		}
	}
	return tr
}

func TestStatsParentOverlay(t *testing.T) {
	tr := buildTree(t, 2, 12) // forces multiple levels (3k-1 = 5 per cluster)
	root, height := tr.Root()
	if height < 2 {
		t.Fatalf("want a multi-level tree, got height %d", height)
	}
	if p, ok := tr.StatsParent(root); ok {
		t.Fatalf("root %s must have no stats parent, got %s", root, p)
	}
	if _, ok := tr.StatsParent("nope"); ok {
		t.Fatal("unknown member must have no stats parent")
	}
	// Every non-root member must reach the root by following StatsParent,
	// in at most `height` hops — the digest-convergence bound.
	for _, m := range tr.Members() {
		if m == root {
			continue
		}
		cur, hops := m, 0
		for cur != root {
			p, ok := tr.StatsParent(cur)
			if !ok {
				t.Fatalf("member %s: chain stalled at %s (no parent, not root)", m, cur)
			}
			if p == cur {
				t.Fatalf("member %s: self-loop at %s", m, cur)
			}
			cur = p
			hops++
			if hops > height {
				t.Fatalf("member %s: overlay path exceeds tree height %d", m, height)
			}
		}
	}
}

func TestMergeRowsNewestWins(t *testing.T) {
	old := EntityStats{Entity: "e1", Seq: 3, UnixNano: 100, Load: 1}
	fresh := EntityStats{Entity: "e1", Seq: 5, UnixNano: 50, Load: 2}
	dst := map[string]EntityStats{"e1": fresh}
	MergeRows(dst, map[string]EntityStats{"e1": old, "e2": {Entity: "e2", Seq: 1}})
	if dst["e1"].Load != 2 {
		t.Fatalf("stale row overwrote fresh one: %+v", dst["e1"])
	}
	if _, ok := dst["e2"]; !ok {
		t.Fatal("new entity row not merged")
	}
	// Equal Seq: later UnixNano wins.
	MergeRows(dst, map[string]EntityStats{"e1": {Entity: "e1", Seq: 5, UnixNano: 60, Load: 7}})
	if dst["e1"].Load != 7 {
		t.Fatalf("same-seq later row must win: %+v", dst["e1"])
	}
}

// TestStatsFederationConverges builds a multi-level tree over a SimNet,
// ticks every node height+1 times, and checks the root's table covers
// the whole membership with each entity's freshest fold.
func TestStatsFederationConverges(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	tr := buildTree(t, 2, 12)
	root, height := tr.Root()

	nodes := make(map[MemberID]*StatsNode)
	for _, m := range tr.Members() {
		m := m
		n, err := NewStatsNode(m, net)
		if err != nil {
			t.Fatalf("stats node %s: %v", m, err)
		}
		defer n.Close()
		n.Fold = func() EntityStats {
			return EntityStats{Load: float64(len(m))} // any distinguishing value
		}
		n.Parent = func() (simnet.NodeID, bool) {
			p, ok := tr.StatsParent(m)
			if !ok {
				return "", false
			}
			return StatsEndpoint(p), true
		}
		nodes[m] = n
	}

	for round := 0; round <= height; round++ {
		for _, m := range tr.Members() {
			nodes[m].Tick()
		}
		if !net.Quiesce(2 * time.Second) {
			t.Fatal("network did not quiesce")
		}
	}

	view := nodes[root].Snapshot()
	if len(view) != tr.Size() {
		t.Fatalf("root sees %d rows, want %d: %v", len(view), tr.Size(), view)
	}
	for _, m := range tr.Members() {
		row, ok := view[string(m)]
		if !ok {
			t.Fatalf("root missing row for %s", m)
		}
		if row.Seq == 0 || row.UnixNano == 0 {
			t.Fatalf("row %s not stamped: %+v", m, row)
		}
	}
	if nodes[root].Merges.Value() == 0 {
		t.Fatal("root merged no digests")
	}
}

func TestStatsNodeExpiresStaleRows(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	n, err := NewStatsNode("e0", net)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.MaxAge = 10 * time.Millisecond
	n.mu.Lock()
	n.rows["gone"] = EntityStats{Entity: "gone", Seq: 1, UnixNano: time.Now().Add(-time.Second).UnixNano()}
	n.rows["fresh"] = EntityStats{Entity: "fresh", Seq: 1, UnixNano: time.Now().UnixNano()}
	n.mu.Unlock()
	n.Tick()
	view := n.Snapshot()
	if _, ok := view["gone"]; ok {
		t.Fatal("stale row survived expiry")
	}
	if _, ok := view["fresh"]; !ok {
		t.Fatal("fresh row wrongly expired")
	}
	if _, ok := view["e0"]; !ok {
		t.Fatal("own row missing after tick")
	}
}

func TestTreeEventSink(t *testing.T) {
	tr := NewTree(2)
	var ops []string
	tr.SetEventSink(func(op string, leader MemberID, level int) {
		ops = append(ops, op)
	})
	for i := 0; i < 12; i++ {
		id := MemberID(fmt.Sprintf("e%02d", i))
		if _, err := tr.Join(id, simnet.Point{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	split := false
	for _, op := range ops {
		if op == "split" {
			split = true
		}
	}
	if !split {
		t.Fatalf("12 joins at k=2 must split at least once; saw %v", ops)
	}
	ev := tr.Events()
	if int64(len(ops)) != ev.Splits+ev.Merges+ev.Recenters {
		t.Fatalf("sink saw %d ops, counters say %d", len(ops), ev.Splits+ev.Merges+ev.Recenters)
	}
}

// BenchmarkMergeRows prices one digest push at an interior node: a full
// 32-entity digest, every row carrying a sparkline, per-query loads and a
// per-stream meter, merged into an equally wide table. It runs off the
// tuple path, once per stats period per child.
func BenchmarkMergeRows(b *testing.B) {
	rows := func(seq uint64) map[string]EntityStats {
		out := make(map[string]EntityStats, 32)
		for i := 0; i < 32; i++ {
			id := fmt.Sprintf("e%02d", i)
			out[id] = EntityStats{Entity: id, Seq: seq + uint64(i), Load: 5, Queries: 3, PRMax: 0.4,
				PRSpark: make([]float64, SparkLen), QueryLoads: map[string]float64{"q1": 2, "q2": 1.5, "q3": 1.5},
				Streams: map[string]StreamStats{"quotes": {Bytes: 1 << 20, Messages: 4096, BytesPerSec: 64e3}}}
		}
		return out
	}
	dst, src := rows(1), rows(2)
	b.ReportAllocs()
	for b.Loop() {
		MergeRows(dst, src)
	}
}
