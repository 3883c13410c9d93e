package dissemination

import (
	"testing"
	"time"

	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// TestRelayCoveredInterestStopsAtAncestor: on a Locality chain src -> e00
// -> e01 -> e02 with a cap of 1, a new query at e02 whose interest e01's
// aggregate already covers moves e02's registration and no other: e01
// takes it and sends nothing, so no registration travels above e01. A
// local change that does not move a relay's own aggregate sends nothing
// at all. Refresh still sends every relay's registration, moved or not,
// and a relay whose parent changed registers with the new one even when
// its aggregate did not move.
func TestRelayCoveredInterestStopsAtAncestor(t *testing.T) {
	net := &interestCounter{SimNet: simnet.NewSim(nil), sent: map[simnet.NodeID]int{}}
	defer net.Close()
	ids := []simnet.NodeID{"e00", "e01", "e02"}
	members := make([]Member, len(ids))
	for i, id := range ids {
		members[i] = Member{ID: id, Pos: simnet.Point{X: float64(10 * (i + 1))}}
	}
	tr, err := Build("quotes", testSource, members, Locality, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parent("e02") != "e01" || tr.Parent("e01") != "e00" {
		t.Fatalf("test tree is not the chain src -> e00 -> e01 -> e02: %v", tr)
	}
	sc := quotesSchema()
	relays := make([]*Relay, len(ids))
	for i, id := range ids {
		if relays[i], err = NewRelay(tr, id, sc, net, func(stream.Tuple) {}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewRelay(tr, testSource.ID, sc, net, nil, 1); err != nil {
		t.Fatal(err)
	}
	price := func(lo, hi float64) stream.Interest {
		return stream.NewInterest("quotes").WithRange("price", lo, hi)
	}
	setLocal := func(i int, terms ...stream.Interest) {
		t.Helper()
		if err := relays[i].SetLocalInterest(terms); err != nil {
			t.Fatal(err)
		}
		net.Quiesce(time.Second)
	}
	// Aggregates at cap 1: e02 [300,400], e01 [100,400], e00 [0,1000].
	setLocal(2, price(300, 400))
	setLocal(1, price(100, 200))
	setLocal(0, price(0, 1000))
	net.take()

	// e02's aggregate becomes [150,400], inside e01's [100,400].
	setLocal(2, price(300, 400), price(150, 160))
	if sent := net.take(); sent["e02"] != 1 || sent["e01"] != 0 || sent["e00"] != 0 {
		t.Fatalf("covered query sent registrations %v, want one from e02 only", sent)
	}
	if !relays[1].aggregate().Matches(sc, quote(1, "ibm", 155)) || relays[1].aggregate().Matches(sc, quote(2, "ibm", 450)) {
		t.Fatal("e01's aggregate is not [100,400]")
	}
	relays[1].mu.Lock()
	reg := relays[1].children["e02"].set
	relays[1].mu.Unlock()
	if len(reg.Terms) != 1 || reg.Terms[0].Ranges["price"] != (stream.Range{Lo: 150, Hi: 400}) {
		t.Fatalf("e01 holds e02's registration %v, want [150,400]", reg.Terms)
	}

	// Within e02's own aggregate: nothing is sent.
	setLocal(2, price(300, 400), price(150, 160), price(310, 320))
	if sent := net.take(); len(sent) != 0 {
		t.Fatalf("a query inside e02's aggregate sent registrations %v", sent)
	}

	for _, rel := range relays {
		if err := rel.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce(time.Second)
	if sent := net.take(); sent["e00"] != 1 || sent["e01"] != 1 || sent["e02"] != 1 {
		t.Fatalf("a refresh round sent registrations %v, want one per relay", sent)
	}

	if err := tr.ApplyRewire(Rewire{Child: "e02", OldParent: "e01", NewParent: "e00"}, 2); err != nil {
		t.Fatal(err)
	}
	setLocal(2, price(300, 400), price(150, 160), price(310, 320))
	if sent := net.take(); sent["e02"] != 1 {
		t.Fatalf("after a rewire e02 sent registrations %v, want one to its new parent", sent)
	}
	relays[0].mu.Lock()
	_, ok := relays[0].children["e02"]
	relays[0].mu.Unlock()
	if !ok {
		t.Fatal("e00 did not take e02's registration after the rewire")
	}
}
