package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/obslog"
	"sspd/internal/querygraph"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// settleTicks runs n manual digest periods with the network quiesced
// between them, spaced out enough for rate differentiation.
func settleTicks(fed *Federation, n int) {
	for i := 0; i < n; i++ {
		time.Sleep(15 * time.Millisecond) // dt > the 10ms rate guard
		fed.StatsTick()
		fed.Settle(2 * time.Second)
	}
}

// TestStatsPlaneClusterView is the tentpole integration test: a
// 3-entity simnet federation's root digest covers every entity within
// two digest periods, and the cluster registry renders it as
// sspd_cluster_* Prometheus families.
func TestStatsPlaneClusterView(t *testing.T) {
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed := startFederation(t, net, Options{Strategy: dissemination.Balanced, Fanout: 2}, 3, 2, miniFactory)
	if fed.ClusterRegistry() != nil {
		t.Fatal("cluster registry must be nil before EnableStatsPlane")
	}
	for i := 0; i < 3; i++ {
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("q%d", i), 0, 1000),
			fmt.Sprintf("e%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(2 * time.Second)
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableStatsPlane(0); err == nil {
		t.Fatal("double enable must fail")
	}

	tick := workload.NewTicker(3, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(50)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// Acceptance bound: the root view covers the federation within TWO
	// digest periods.
	settleTicks(fed, 2)
	rows, root, ok := fed.ClusterStats()
	if !ok {
		t.Fatal("no root digest")
	}
	if r, _ := fed.Coordinator().Root(); string(r) != root {
		t.Fatalf("root mismatch: %s vs %s", r, root)
	}
	if len(rows) != 3 {
		t.Fatalf("root sees %d rows after two periods, want 3: %v", len(rows), rows)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("e%02d", i)
		row, found := rows[id]
		if !found {
			t.Fatalf("missing digest row for %s", id)
		}
		if row.Queries != 1 {
			t.Errorf("%s: digest says %d queries, want 1", id, row.Queries)
		}
		// MiniEngine has no metrics; measured load falls back to the
		// spec estimate, which is positive.
		if l, okq := row.QueryLoads[fmt.Sprintf("q%d", i)]; !okq || l <= 0 {
			t.Errorf("%s: query load missing or non-positive: %v", id, row.QueryLoads)
		}
		if _, oks := row.Streams["quotes"]; !oks {
			t.Errorf("%s: stream stats missing: %+v", id, row.Streams)
		}
		if len(row.PRSpark) == 0 {
			t.Errorf("%s: no PR sparkline samples", id)
		}
	}
	// Leaf relays forward nothing, but the interior of the dissemination
	// tree must have moved real bytes.
	var totalBytes int64
	for _, row := range rows {
		totalBytes += row.Streams["quotes"].Bytes
	}
	if totalBytes <= 0 {
		t.Fatalf("no relay bytes recorded anywhere in the digest: %v", rows)
	}

	// Publish more and tick again: the measured source rate turns
	// positive once two spaced readings exist.
	if err := fed.Publish("quotes", tick.Batch(100)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	settleTicks(fed, 1)
	if rate := fed.streamRates()["quotes"]; rate <= 0 {
		t.Fatalf("measured stream rate = %v, want > 0", rate)
	}

	// Health: every entity up and fresh.
	health := fed.ClusterHealth()
	if len(health) != 3 {
		t.Fatalf("health rows = %d, want 3", len(health))
	}
	for _, h := range health {
		if !h.Healthy || !h.Up {
			t.Errorf("%s unexpectedly unhealthy: %+v", h.Entity, h)
		}
	}

	// The cluster registry renders the digest.
	var buf bytes.Buffer
	if err := fed.ClusterRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sspd_cluster_entities 3",
		`sspd_cluster_entity_load{entity="e00"}`,
		`sspd_cluster_query_load{entity="e01",query="q1"}`,
		`sspd_cluster_stream_bytes_total{entity="e02",stream="quotes"}`,
		`sspd_cluster_entity_up{entity="e00"} 1`,
		"sspd_cluster_pr_max",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster exposition missing %q", want)
		}
	}

	// The measured graph keeps every query vertex.
	g := fed.QueryGraph()
	if g.NumVertices() != 3 {
		t.Fatalf("measured graph has %d vertices, want 3", g.NumVertices())
	}
	for i := 0; i < 3; i++ {
		if w := g.VertexWeight(querygraph.VertexID(fmt.Sprintf("q%d", i))); w <= 0 {
			t.Errorf("q%d measured vertex weight = %v, want > 0", i, w)
		}
	}
}

// TestStatsPlaneChurn: joining entities start reporting, failed entities
// stop being healthy, and the plane survives both.
func TestStatsPlaneChurn(t *testing.T) {
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed := startFederation(t, net, Options{Strategy: dissemination.Balanced, Fanout: 2}, 3, 1, miniFactory)
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}

	if err := fed.JoinEntity("e03", simnet.Point{X: 55}, 1, miniFactory); err != nil {
		t.Fatal(err)
	}
	settleTicks(fed, 2)
	rows, _, ok := fed.ClusterStats()
	if !ok || len(rows) != 4 {
		t.Fatalf("after join: rows=%d ok=%v, want 4", len(rows), ok)
	}

	if _, err := fed.FailEntity("e03"); err != nil {
		t.Fatal(err)
	}
	settleTicks(fed, 2)
	for _, h := range fed.ClusterHealth() {
		if h.Entity == "e03" && (h.Up || h.Healthy) {
			t.Fatalf("failed entity still reported up: %+v", h)
		}
	}
}

// TestJournalCausalChainUnderChaos blackholes an interior entity of the
// dissemination tree and asserts the full failure story lands in the
// journal in causal seq order: control.giveup → detector.suspect →
// detector.confirm → entity.fail → tree.repair → migration.place.
func TestJournalCausalChainUnderChaos(t *testing.T) {
	const n = 5
	fed, plan := newChaosFederation(t, 11, n, Options{
		Strategy: dissemination.Balanced,
		Fanout:   2,
	}, 25*time.Millisecond, miniFactory)

	// Pick a victim that relays for at least one other entity, so a
	// healthy child's interest refresh will hit the blackhole and feed
	// the detector an out-of-band suspicion.
	tree := fed.DisseminationTree("quotes")
	victim := ""
	for i := 0; i < n && victim == ""; i++ {
		id := fmt.Sprintf("e%02d", i)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if tree.Parent(relayID(fmt.Sprintf("e%02d", j), "quotes")) == relayID(id, "quotes") {
				victim = id
				break
			}
		}
	}
	if victim == "" {
		t.Fatal("no interior entity in the dissemination tree")
	}
	var got atomic.Int64
	if err := fed.SubmitQueryTo(priceQuery("qv", 0, 1000), victim,
		func(stream.Tuple) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// Slow heartbeat-only confirmation (50ms × 20 = 1s) so the reliable
	// give-up path wins the race to raise the suspicion.
	if err := fed.EnableFailureDetection(50*time.Millisecond, 20); err != nil {
		t.Fatal(err)
	}
	plan.Blackhole(hbID(victim), relayID(victim, "quotes"), simnet.NodeID(victim+"/p0"), simnet.NodeID(victim+"/p1"))
	plan.SetEnabled(true)

	chain := []string{"control.giveup", "detector.suspect", "detector.confirm",
		"entity.fail", "tree.repair", "migration.place"}
	firstSeqs := func() (map[string]uint64, bool) {
		seqs := make(map[string]uint64)
		for _, e := range fed.Journal().Since(0, "") {
			if e.Node != victim && e.Fields["failed"] != victim {
				continue
			}
			if _, seen := seqs[e.Kind]; !seen {
				seqs[e.Kind] = e.Seq
			}
		}
		for _, k := range chain {
			if _, ok := seqs[k]; !ok {
				return seqs, false
			}
		}
		return seqs, true
	}
	deadline := time.Now().Add(15 * time.Second)
	var seqs map[string]uint64
	for {
		var complete bool
		if seqs, complete = firstSeqs(); complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("causal chain incomplete after 15s: have %v", seqs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 1; i < len(chain); i++ {
		if seqs[chain[i-1]] >= seqs[chain[i]] {
			t.Errorf("causal order violated: %s (seq %d) must precede %s (seq %d)",
				chain[i-1], seqs[chain[i-1]], chain[i], seqs[chain[i]])
		}
	}

	// The /events cursor semantics the API depends on.
	confirmSeq := seqs["detector.confirm"]
	after := fed.Journal().Since(confirmSeq, "entity")
	found := false
	for _, e := range after {
		if e.Kind == "entity.fail" && e.Node == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("Since(confirmSeq, entity) must include the entity.fail event")
	}
}

// TestFederationLoggerDefaultsAndJournal: every federation has a journal
// and records churn events.
func TestFederationLoggerDefaultsAndJournal(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	logger := obslog.New(obslog.NewJournal(64), nil) // journal-only, quiet
	fed, err := New(net, workload.Catalog(100, 20), Options{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if fed.Journal() == nil {
		t.Fatal("federation must expose a journal")
	}
	if err := fed.AddSource("quotes", simnet.Point{}, StreamRate{TuplesPerSec: 100, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i), simnet.Point{X: float64(i)}, 1, miniFactory); err != nil {
			t.Fatal(err)
		}
	}
	joins := fed.Journal().Since(0, "entity.join")
	if len(joins) != 2 {
		t.Fatalf("journal has %d entity.join events, want 2", len(joins))
	}
}
