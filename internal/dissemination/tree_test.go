package dissemination

import (
	"fmt"
	"testing"

	"sspd/internal/simnet"
)

func mkMembers(n int) []Member {
	out := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Member{
			ID:  simnet.NodeID(fmt.Sprintf("e%02d", i)),
			Pos: simnet.Point{X: float64(i%8) * 10, Y: float64(i/8) * 10},
		})
	}
	return out
}

var testSource = Member{ID: "src", Pos: simnet.Point{X: 0, Y: 0}}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("", testSource, nil, Balanced, 2); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Build("s", Member{}, nil, Balanced, 2); err == nil {
		t.Error("empty source accepted")
	}
	dup := []Member{{ID: "a"}, {ID: "a"}}
	if _, err := Build("s", testSource, dup, Balanced, 2); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := Build("s", testSource, []Member{{ID: "src"}}, Balanced, 2); err == nil {
		t.Error("member duplicating source accepted")
	}
	if _, err := Build("s", testSource, nil, Strategy(99), 2); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestSourceDirectShape(t *testing.T) {
	members := mkMembers(10)
	tr, err := Build("quotes", testSource, members, SourceDirect, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxFanout(); got != 10 {
		t.Errorf("source-direct fanout = %d, want 10", got)
	}
	if got := tr.MaxDepth(); got != 1 {
		t.Errorf("source-direct depth = %d, want 1", got)
	}
	for _, m := range members {
		if tr.Parent(m.ID) != "src" {
			t.Errorf("parent of %s = %s", m.ID, tr.Parent(m.ID))
		}
	}
}

func TestBalancedShape(t *testing.T) {
	members := mkMembers(13)
	tr, err := Build("quotes", testSource, members, Balanced, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxFanout(); got > 3 {
		t.Errorf("balanced fanout = %d, want <= 3", got)
	}
	// 13 members, fanout 3: source has 3, next level 9, one more at
	// depth 3.
	if got := tr.MaxDepth(); got != 3 {
		t.Errorf("balanced depth = %d, want 3", got)
	}
	if got := len(tr.Members()); got != 13 {
		t.Errorf("members = %d", got)
	}
}

func TestLocalityShape(t *testing.T) {
	members := mkMembers(20)
	tr, err := Build("quotes", testSource, members, Locality, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxFanout(); got > 3 {
		t.Errorf("locality fanout = %d, want <= 3", got)
	}
	// Locality must not cost more total wire than balanced (it greedily
	// minimizes each attachment).
	bal, err := Build("quotes", testSource, members, Balanced, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalEdgeLength() > bal.TotalEdgeLength() {
		t.Errorf("locality edge length %v > balanced %v",
			tr.TotalEdgeLength(), bal.TotalEdgeLength())
	}
}

func TestBuildFanoutClamp(t *testing.T) {
	tr, err := Build("s", testSource, mkMembers(5), Balanced, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxFanout() > 1 {
		t.Errorf("fanout clamp failed: %d", tr.MaxFanout())
	}
	if tr.MaxDepth() != 5 {
		t.Errorf("chain depth = %d", tr.MaxDepth())
	}
}

func TestTreeAccessors(t *testing.T) {
	tr, err := Build("quotes", testSource, mkMembers(4), Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stream() != "quotes" || tr.Source() != "src" {
		t.Error("accessors wrong")
	}
	if tr.Depth("src") != 0 {
		t.Error("source depth")
	}
	if tr.Depth("unknown") != -1 {
		t.Error("unknown depth should be -1")
	}
	ch := tr.Children("src")
	if len(ch) != 2 {
		t.Errorf("source children = %v", ch)
	}
	// Children returns a copy.
	ch[0] = "mutated"
	if tr.Children("src")[0] == "mutated" {
		t.Error("Children returns internal storage")
	}
	if tr.Parent("src") != "" {
		t.Error("source parent should be empty")
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		SourceDirect: "source-direct",
		Balanced:     "balanced",
		Locality:     "locality",
		Strategy(9):  "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr, err := Build("s", testSource, mkMembers(3), Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Orphan a node.
	tr.parent["e01"] = "ghost"
	if err := tr.Validate(); err == nil {
		t.Error("orphan undetected")
	}
	// Create a cycle.
	tr2, _ := Build("s", testSource, mkMembers(3), Balanced, 2)
	tr2.parent["e00"] = "e01"
	tr2.parent["e01"] = "e00"
	if err := tr2.Validate(); err == nil {
		t.Error("cycle undetected")
	}
}

// Depth returns the number of hops from the source to id (0 for the
// source itself).
func (t *Tree) Depth(id simnet.NodeID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.depthLocked(id)
}
