package dissemination

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sspd/internal/simnet"
	"sspd/internal/stream"
)

func TestAddMemberRuntime(t *testing.T) {
	tr, err := Build("s", testSource, mkMembers(5), Locality, 2)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := tr.AddMember(Member{ID: "newbie", Pos: simnet.Point{X: 15, Y: 5}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Child != "newbie" || rw.NewParent == "" || rw.OldParent != "" {
		t.Fatalf("rewire = %+v", rw)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.MaxFanout() > 2 {
		t.Errorf("fanout bound broken: %d", tr.MaxFanout())
	}
	if _, err := tr.AddMember(Member{ID: "newbie"}, 2); err == nil {
		t.Error("duplicate add accepted")
	}
	if _, err := tr.AddMember(Member{ID: "src"}, 2); err == nil {
		t.Error("source add accepted")
	}
}

func TestRemoveMemberReattachesOrphans(t *testing.T) {
	tr, err := Build("s", testSource, mkMembers(10), Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Remove an internal node (the source's first child has children).
	victim := tr.Children("src")[0]
	orphans := tr.Children(victim)
	if len(orphans) == 0 {
		t.Fatal("picked a leaf; want an internal node")
	}
	rewires, err := tr.RemoveMember(victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rewires) != len(orphans) {
		t.Fatalf("rewires = %d, orphans = %d", len(rewires), len(orphans))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invalid after removal: %v", err)
	}
	for _, o := range orphans {
		if tr.Depth(o) < 0 {
			t.Errorf("orphan %s unreachable", o)
		}
	}
	if _, err := tr.RemoveMember(victim, 2); err == nil {
		t.Error("double remove accepted")
	}
	if _, err := tr.RemoveMember("src", 2); err == nil {
		t.Error("source removal accepted")
	}
}

func TestRemoveMemberNeverAttachesIntoOwnSubtree(t *testing.T) {
	// A chain: src -> a -> b -> c. Removing a must not attach b under c.
	tr, err := Build("s", testSource, []Member{
		{ID: "a", Pos: simnet.Point{X: 10}},
		{ID: "b", Pos: simnet.Point{X: 20}},
		{ID: "c", Pos: simnet.Point{X: 30}},
	}, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RemoveMember("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("cycle or orphan after removal: %v", err)
	}
}

// reorganize runs improvement steps to a local optimum the way the
// federation's ReorganizeTrees does (without the relays' make-before-break
// between planning and applying a step), returning the rewires made.
func reorganize(t *testing.T, tr *Tree, fanout int) []Rewire {
	var rewires []Rewire
	for len(rewires) <= 4*len(tr.Members()) {
		rw, ok := tr.ReorganizeStep(fanout)
		if !ok {
			break
		}
		if err := tr.ApplyRewire(rw, fanout); err != nil {
			t.Fatalf("planned rewire %+v: %v", rw, err)
		}
		rewires = append(rewires, rw)
	}
	return rewires
}

func TestReorganizeImprovesEdgeLength(t *testing.T) {
	// A deliberately bad tree: Balanced ignores geometry, so members end
	// up far from their parents. Reorganizing must strictly shrink total
	// edge length and converge.
	members := make([]Member, 24)
	rng := rand.New(rand.NewSource(4))
	for i := range members {
		members[i] = Member{
			ID:  simnet.NodeID(fmt.Sprintf("m%02d", i)),
			Pos: simnet.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		}
	}
	tr, err := Build("s", testSource, members, Balanced, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.TotalEdgeLength()
	total := 0
	for pass := 0; pass < 20; pass++ {
		rw := reorganize(t, tr, 3)
		total += len(rw)
		if err := tr.Validate(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if tr.MaxFanout() > 3 {
			t.Fatalf("pass %d: fanout %d", pass, tr.MaxFanout())
		}
		if len(rw) == 0 {
			break
		}
	}
	after := tr.TotalEdgeLength()
	if total == 0 {
		t.Fatal("reorganize never improved a random balanced tree")
	}
	if after >= before {
		t.Fatalf("edge length %v -> %v (no improvement)", before, after)
	}
	// Converged: one more pass changes nothing.
	if rw := reorganize(t, tr, 3); len(rw) != 0 {
		t.Fatalf("not converged: %d more rewires", len(rw))
	}
}

func TestReorganizeChurnProperty(t *testing.T) {
	// Random add/remove/reorganize churn keeps the tree valid.
	rng := rand.New(rand.NewSource(77))
	tr, err := Build("s", testSource, mkMembers(8), Locality, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := 100
	for op := 0; op < 200; op++ {
		switch {
		case rng.Float64() < 0.4:
			id := simnet.NodeID(fmt.Sprintf("d%03d", next))
			next++
			if _, err := tr.AddMember(Member{
				ID:  id,
				Pos: simnet.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			}, 3); err != nil {
				t.Fatal(err)
			}
		case rng.Float64() < 0.7 && len(tr.Members()) > 1:
			members := tr.Members()
			victim := members[rng.Intn(len(members))]
			if _, err := tr.RemoveMember(victim, 3); err != nil {
				t.Fatal(err)
			}
		default:
			reorganize(t, tr, 3)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

func TestDynamicTreeWithLiveRelays(t *testing.T) {
	// Rewire a live tree while tuples flow: no delivery is lost once
	// interests refresh.
	net := simnet.NewSim(nil)
	defer net.Close()
	sc := quotesSchema()
	members := []Member{
		{ID: "e00", Pos: simnet.Point{X: 10}},
		{ID: "e01", Pos: simnet.Point{X: 20}},
	}
	tr, err := Build("quotes", testSource, members, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewRelay(tr, "src", sc, net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[simnet.NodeID]*deliverySink{}
	relays := map[simnet.NodeID]*Relay{}
	addRelay := func(id simnet.NodeID) {
		sink := &deliverySink{}
		r, err := NewRelay(tr, id, sc, net, sink.deliver, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes")}); err != nil {
			t.Fatal(err)
		}
		sinks[id] = sink
		relays[id] = r
	}
	addRelay("e00")
	addRelay("e01")
	net.Quiesce(time.Second)

	// A third entity joins at runtime.
	rw, err := tr.AddMember(Member{ID: "e02", Pos: simnet.Point{X: 30}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	addRelay("e02")
	if err := relays[rw.Child].Refresh(); err != nil {
		t.Fatal(err)
	}
	net.Quiesce(time.Second)

	if err := src.Publish(stream.Batch{quote(1, "ibm", 50)}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce(time.Second)
	for id, sink := range sinks {
		if sink.count() != 1 {
			t.Errorf("%s delivered %d, want 1", id, sink.count())
		}
	}

	// e01 leaves; e02 (its child in the chain) is rewired and must keep
	// receiving.
	rewires, err := tr.RemoveMember("e01", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := relays["e01"].Close(); err != nil {
		t.Fatal(err)
	}
	for _, rw := range rewires {
		if r, ok := relays[rw.Child]; ok {
			if err := r.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.Quiesce(time.Second)
	if err := src.Publish(stream.Batch{quote(2, "ibm", 60)}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce(time.Second)
	if sinks["e00"].count() != 2 {
		t.Errorf("e00 delivered %d, want 2", sinks["e00"].count())
	}
	if sinks["e02"].count() != 2 {
		t.Errorf("rewired e02 delivered %d, want 2", sinks["e02"].count())
	}
}
