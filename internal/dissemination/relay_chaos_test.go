package dissemination

import (
	"testing"
	"time"

	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// buildLossyChain wires src -> e00 -> e01 over a FaultPlan.
func buildLossyChain(t *testing.T, seed int64, opts RelayOptions) (*simnet.FaultPlan, *Relay, *Relay, *Relay, *deliverySink) {
	t.Helper()
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), seed)
	t.Cleanup(func() { plan.Close() })
	members := []Member{
		{ID: "e00", Pos: simnet.Point{X: 10}},
		{ID: "e01", Pos: simnet.Point{X: 20}},
	}
	tr, err := Build("quotes", testSource, members, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := quotesSchema()
	src, err := NewRelayWith(tr, "src", sc, plan, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := &deliverySink{}
	r0, err := NewRelayWith(tr, "e00", sc, plan, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRelayWith(tr, "e01", sc, plan, sink.deliver, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan, src, r0, r1, sink
}

// TestInterestConvergesUnderLoss is the soft-state recovery property:
// with 20% loss on the e01->e00 control link, the leaf's interest
// registration may be dropped any number of times, but periodic
// refreshes re-announce it and the ancestors' aggregate filters must
// converge to the true interest set within a bounded number of refresh
// intervals — after which no tuple addressed to the leaf is filtered.
func TestInterestConvergesUnderLoss(t *testing.T) {
	plan, src, r0, r1, sink := buildLossyChain(t, 99, RelayOptions{})
	plan.SetLinkFaults("e01", "e00", simnet.LinkFaults{Drop: 0.2})

	if err := r1.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 100, 200),
	}); err != nil {
		t.Fatal(err)
	}
	// Drive refresh intervals explicitly for determinism: each round is
	// one soft-state re-announcement plus settling. With the 0.2-drop
	// seeded plan, K consecutive losses decay geometrically; converging
	// within 10 intervals is effectively certain.
	const maxIntervals = 10
	converged := -1
	wants := func(rel *Relay) bool {
		set := rel.aggregate()
		return set.Matches(rel.schema, quote(1, "ibm", 150))
	}
	for k := 0; k < maxIntervals; k++ {
		if wants(r0) && wants(src) {
			converged = k
			break
		}
		if err := r1.Refresh(); err != nil {
			t.Fatal(err)
		}
		if !plan.Quiesce(time.Second) {
			t.Fatal("quiesce")
		}
	}
	if converged < 0 {
		t.Fatalf("ancestor filters did not converge within %d refresh intervals", maxIntervals)
	}
	t.Logf("converged after %d refresh intervals (%d registrations dropped)",
		converged, plan.InjectedTotals()[string(simnet.FaultDrop)])

	// After convergence, stop faulting and verify no tuple the leaf
	// wants is filtered anywhere on the path.
	plan.SetEnabled(false)
	if err := src.Publish(stream.Batch{
		quote(1, "ibm", 150), quote(2, "msft", 120), quote(3, "ibm", 500),
	}); err != nil {
		t.Fatal(err)
	}
	if !plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if got := sink.count(); got != 2 {
		t.Fatalf("leaf delivered %d tuples after convergence, want 2 (none silently filtered)", got)
	}
}

// TestInterestConvergesWithReliableControl repeats the lossy-link
// scenario with the reliable control plane: a single registration must
// survive 50% loss through retries alone, no refresh needed.
func TestInterestConvergesWithReliableControl(t *testing.T) {
	opts := RelayOptions{Reliable: &simnet.ReliableConfig{
		MaxAttempts: 20, BaseBackoff: 2 * time.Millisecond,
	}}
	plan, src, r0, r1, sink := buildLossyChain(t, 7, opts)
	plan.SetLinkFaults("e01", "e00", simnet.LinkFaults{Drop: 0.5})
	plan.SetLinkFaults("e00", "e01", simnet.LinkFaults{Drop: 0.5}) // acks lossy too

	if err := r1.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 100, 200),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		set := r0.aggregate()
		if set.Matches(r0.schema, quote(1, "ibm", 150)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reliable registration never reached the parent through 50% loss")
		}
		time.Sleep(5 * time.Millisecond)
	}
	plan.SetEnabled(false)
	plan.Quiesce(time.Second)
	if err := src.Publish(stream.Batch{quote(1, "ibm", 150)}); err != nil {
		t.Fatal(err)
	}
	plan.Quiesce(time.Second)
	if sink.count() != 1 {
		t.Fatalf("delivered %d, want 1", sink.count())
	}
	if r1.Reliable().Retries.Value() == 0 {
		t.Error("no retries under 50% loss")
	}
	_ = src
}

// TestRelaySendErrorsCounted is the regression for Publish/fan-out
// swallowing transport errors: sends to a vanished child must be
// counted per link (and logged once), not discarded.
func TestRelaySendErrorsCounted(t *testing.T) {
	net, src, _, r1, _, _ := buildChain(t)
	// The tree still routes src -> e00 -> e01, but e00's endpoint is
	// gone: every batch to it now fails at the transport.
	if err := net.Deregister("e00"); err != nil {
		t.Fatal(err)
	}
	_ = r1
	for i := 0; i < 3; i++ {
		if err := src.Publish(stream.Batch{quote(uint64(i), "ibm", 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.SendErrors.Value(); got != 3 {
		t.Fatalf("SendErrors = %d, want 3", got)
	}
	byLink := src.SendErrorsByLink()
	if byLink["e00"] != 3 {
		t.Fatalf("per-link errors = %v, want e00:3", byLink)
	}
}
