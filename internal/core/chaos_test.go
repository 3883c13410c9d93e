package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// ControlGiveUps reports abandoned control-plane deliveries so far
// (sspd_control_giveups_total).
func (f *Federation) ControlGiveUps() int64 { return f.controlGiveUps.Value() }

// newChaosFederation builds a started federation whose transport is a
// seeded FaultPlan: one quotes source, n entities on a line, engines
// from factory.
func newChaosFederation(t *testing.T, seed int64, n int, opts Options, refresh time.Duration,
	factory entity.EngineFactory) (*Federation, *simnet.FaultPlan) {
	t.Helper()
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), seed)
	t.Cleanup(func() { plan.Close() })
	return startRefreshing(t, buildFederation(t, plan, opts, n, 2, factory), refresh), plan
}

// startRefreshing starts fed with its interest refresh every `refresh`
// (0 keeps the shipped interestRefresh).
func startRefreshing(t *testing.T, fed *Federation, refresh time.Duration) *Federation {
	t.Helper()
	if refresh > 0 {
		fed.refreshEvery = refresh
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestChaosEndToEndRecovery is the headline robustness property: under
// injected loss, duplication, a transient partition, AND a full entity
// crash, the federation detects the failure, repairs the dissemination
// tree, re-places the dead entity's queries, and — once the faults lift
// — delivers every published tuple to every query exactly once. Zero
// tuples are silently lost after recovery, on either engine.
func TestChaosEndToEndRecovery(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) { chaosEndToEndRecovery(t, eng.factory) })
	}
}

func chaosEndToEndRecovery(t *testing.T, factory entity.EngineFactory) {
	const n = 4
	fed, plan := newChaosFederation(t, 42, n, Options{
		Strategy: dissemination.Balanced,
		Fanout:   2,
	}, 25*time.Millisecond, factory)
	var counts [n]atomic.Int64
	for i := 0; i < n; i++ {
		c := &counts[i]
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("q%d", i), 0, 1000),
			fmt.Sprintf("e%02d", i),
			func(stream.Tuple) { c.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(2 * time.Second)
	snapshot := func() (s [n]int64) {
		for i := range counts {
			s[i] = counts[i].Load()
		}
		return s
	}
	tick := workload.NewTicker(3, 100, 1.2)
	publish := func(k int) {
		t.Helper()
		if err := fed.Publish("quotes", tick.Batch(k)); err != nil {
			t.Fatal(err)
		}
		drainAll(fed)
	}

	// Baseline: exact delivery with the plan transparent.
	plan.SetEnabled(false)
	publish(10)
	for i, got := range snapshot() {
		if got != 10 {
			t.Fatalf("baseline: q%d delivered %d, want 10", i, got)
		}
	}

	// Chaos: light loss and duplication on every link, a transient
	// partition of e00's data link, and a full crash of e03 (all its
	// endpoints blackholed, as if the process died).
	if err := fed.EnableFailureDetection(20*time.Millisecond, 5); err != nil {
		t.Fatal(err)
	}
	plan.SetDefaultFaults(simnet.LinkFaults{Drop: 0.03, Duplicate: 0.02})
	plan.Partition("src:quotes", relayID("e00", "quotes"))
	plan.Blackhole(hbID("e03"), relayID("e03", "quotes"), "e03/p0", "e03/p1")
	plan.SetEnabled(true)
	publish(5) // traffic during the outage; no delivery guarantees here

	// Self-healing: the monitor expels e03 and its query is re-placed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		host, ok := fed.QueryEntity("q3")
		if len(fed.EntityIDs()) == n-1 && ok && host != "e03" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crashed entity not expelled/re-placed: entities=%v q3@%s/%v",
				fed.EntityIDs(), host, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fed.Coordinator().Events().Fails == 0 {
		t.Fatal("coordinator recorded no fail event")
	}

	// Faults lift; soft-state refresh re-converges the interest filters.
	plan.SetEnabled(false)
	fed.Settle(2 * time.Second)
	deadline = time.Now().Add(10 * time.Second)
	for {
		before := snapshot()
		publish(1)
		after := snapshot()
		ok := true
		for i := range after {
			if after[i]-before[i] != 1 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interest filters did not re-converge: probe deltas %v -> %v", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The recovery guarantee: exactly-once delivery for every query,
	// including the re-placed one — nothing silently lost or duplicated.
	before := snapshot()
	publish(10)
	after := snapshot()
	for i := range after {
		if d := after[i] - before[i]; d != 10 {
			t.Errorf("after recovery: q%d delivered %d of 10 (lost or duplicated)", i, d)
		}
	}

	// The chaos actually happened and is visible in the metrics.
	if tot := plan.InjectedTotals(); len(tot) == 0 {
		t.Error("no faults recorded as injected")
	}
	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"sspd_faults_injected", "sspd_control_retries_total", "sspd_control_giveups_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestControlGiveUpDoesNotExpelHealthyEntity: a give-up report against
// a reachable entity (e.g. the reporter was the partitioned side) must
// not get it expelled — the detector's confirmation probe clears it.
func TestControlGiveUpDoesNotExpelHealthyEntity(t *testing.T) {
	fed, _ := newChaosFederation(t, 1, 3, Options{}, 0, miniFactory)
	if err := fed.EnableFailureDetection(20*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	fed.controlGiveUp(relayID("e01", "quotes"), dissemination.KindInterest)
	if fed.ControlGiveUps() != 1 {
		t.Fatalf("ControlGiveUps = %d, want 1", fed.ControlGiveUps())
	}
	// Several detection windows pass; the healthy entity stays.
	time.Sleep(200 * time.Millisecond)
	if got := len(fed.EntityIDs()); got != 3 {
		t.Fatalf("healthy entity expelled after give-up report: entities = %v", fed.EntityIDs())
	}
}

func TestEntityForEndpoint(t *testing.T) {
	cases := []struct {
		ep   simnet.NodeID
		id   string
		ok   bool
		what string
	}{
		{relayID("e01", "quotes"), "e01", true, "relay endpoint"},
		{hbID("e01"), "e01", true, "heartbeat endpoint"},
		{"e01/p0", "e01", true, "processor endpoint"},
		{sourceID("quotes"), "", false, "stream source"},
		{"portal/hb", "", false, "portal monitor"},
		{"bare", "", false, "unstructured name"},
	}
	for _, c := range cases {
		id, ok := entityForEndpoint(c.ep)
		if id != c.id || ok != c.ok {
			t.Errorf("%s %q: got (%q, %v), want (%q, %v)", c.what, c.ep, id, ok, c.id, c.ok)
		}
	}
}
