package core

import (
	"fmt"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// Tests of the handoff (handoff.go) on destinations that already
// receive the stream: the target's gate buffers from PREPARE on, so only
// the source's cut keeps it from replaying what the source's state
// already holds.

// holdLinkTo delays every message into entityID's quotes relay from its
// current tree parent, so the entity sees each batch that much later
// than the rest of the federation.
func holdLinkTo(t *testing.T, fed *Federation, plan *simnet.FaultPlan, entityID string, d time.Duration) {
	t.Helper()
	rid := relayID(entityID, "quotes")
	parent := fed.DisseminationTree("quotes").Parent(rid)
	if parent == "" {
		t.Fatalf("relay %s has no parent", rid)
	}
	plan.SetLinkFaults(parent, rid, simnet.LinkFaults{Reorder: 1, ReorderDelay: d})
}

// assertExactlyOnce fails unless every published tuple produced exactly
// one result in log, and the count window never restarted or repeated.
func assertExactlyOnce(t *testing.T, name string, log *seqLog, published stream.Batch, window int) {
	t.Helper()
	counts, values := log.snapshot()
	lost, dup := 0, 0
	for _, tu := range published {
		switch counts[tu.Seq] {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if lost != 0 || dup != 0 {
		t.Fatalf("%s: %d lost, %d delivered more than once, of %d published", name, lost, dup, len(published))
	}
	if len(values) != len(published) {
		t.Fatalf("%s: %d results for %d tuples", name, len(values), len(published))
	}
	assertWindowContinuity(t, values, window)
}

// quoteFeed publishes seeded quote batches and remembers what it sent.
type quoteFeed struct {
	t         *testing.T
	fed       *Federation
	tick      *workload.Ticker
	published stream.Batch
}

func newQuoteFeed(t *testing.T, fed *Federation, seed int64) *quoteFeed {
	return &quoteFeed{t: t, fed: fed, tick: workload.NewTicker(seed, 100, 1.2)}
}

func (q *quoteFeed) publish(k int) {
	q.t.Helper()
	b := q.tick.Batch(k)
	q.published = append(q.published, b...)
	if err := q.fed.Publish("quotes", b); err != nil {
		q.t.Fatal(err)
	}
}

// TestHandoffHeldLinkDeliversOnce: the destination hosts a resident
// query, so it receives the stream before the migration starts, and its
// link lags: a batch the source has already processed reaches the
// destination after its gate was prepared. The batch is in the snapshot
// and in the destination's buffer; it must be delivered once.
func TestHandoffHeldLinkDeliversOnce(t *testing.T) {
	const window = 8
	fed, plan := newChaosFederation(t, 3, 2, Options{Strategy: dissemination.Locality, Fanout: 3}, 0, miniFactory)
	agg, resident := &seqLog{}, &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", window), "e00", agg.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(countQuery("resident", window), "e01", resident.observe); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	holdLinkTo(t, fed, plan, "e01", 30*time.Millisecond)
	plan.SetEnabled(true)

	feed := newQuoteFeed(t, fed, 21)
	feed.publish(16)
	waitUntil(t, 5*time.Second, "the source to process the batch", func() bool {
		_, values := agg.snapshot()
		return len(values) == 16
	})
	// e01 has not seen the batch yet; its copy lands during the handoff.
	if err := fed.MigrateQuery("agg", "e01"); err != nil {
		t.Fatal(err)
	}
	feed.publish(16)
	fed.Settle(2 * time.Second)
	plan.SetEnabled(false)
	fed.Settle(2 * time.Second)

	assertExactlyOnce(t, "agg", agg, feed.published, window)
	assertExactlyOnce(t, "resident", resident, feed.published, window)
	recs := fed.Migrations()
	if len(recs) != 1 || recs[0].Outcome != "commit" || !recs[0].Stateful {
		t.Fatalf("migration history = %+v, want one stateful commit", recs)
	}
}

// TestHandoffGroupLeave: an entity hosting eight stateful queries leaves
// while batches are in flight and every survivor — each already hosting
// a resident query, each on a lagging link — takes in its share in one
// handoff. Every tuple is delivered exactly once per query, windows
// carry over, and the history shows eight commits.
func TestHandoffGroupLeave(t *testing.T) {
	const window, hosted = 16, 8
	fed, plan := newChaosFederation(t, 5, 3, Options{Strategy: dissemination.Locality, Fanout: 3}, 0, miniFactory)
	logs := make(map[string]*seqLog)
	submit := func(id, entityID string) {
		t.Helper()
		logs[id] = &seqLog{}
		if err := fed.SubmitQueryTo(countQuery(id, window), entityID, logs[id].observe); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hosted; i++ {
		submit(fmt.Sprintf("q%d", i), "e00")
	}
	submit("r1", "e01")
	submit("r2", "e02")
	fed.Settle(2 * time.Second)
	holdLinkTo(t, fed, plan, "e01", 20*time.Millisecond)
	holdLinkTo(t, fed, plan, "e02", 20*time.Millisecond)
	plan.SetEnabled(true)

	feed := newQuoteFeed(t, fed, 23)
	feed.publish(32)
	waitUntil(t, 5*time.Second, "the leaving entity to process the first batch", func() bool {
		_, values := logs["q0"].snapshot()
		return len(values) == 32
	})
	feed.publish(16) // in flight when the handoffs start
	moved, err := fed.LeaveEntity("e00")
	if err != nil {
		t.Fatal(err)
	}
	if moved != hosted {
		t.Fatalf("LeaveEntity moved %d queries, want %d", moved, hosted)
	}
	feed.publish(32)
	fed.Settle(2 * time.Second)
	plan.SetEnabled(false)
	fed.Settle(2 * time.Second)

	for id, log := range logs {
		assertExactlyOnce(t, id, log, feed.published, window)
	}
	recs := fed.Migrations()
	if len(recs) != hosted {
		t.Fatalf("migration history has %d records, want %d", len(recs), hosted)
	}
	targets := make(map[string]int)
	for _, r := range recs {
		if r.Outcome != "commit" || !r.Stateful || r.From != "e00" {
			t.Fatalf("leave migration %+v, want a stateful commit from e00", r)
		}
		targets[r.To]++
	}
	if len(targets) != 2 {
		t.Fatalf("queries landed on %v, want both survivors to share them", targets)
	}
}

// TestHandoffGroupPartialFailure: one query of a group cannot be placed
// on the target. It stays on its source, running and whole; the rest of
// the group moves; the handoff reports both.
func TestHandoffGroupPartialFailure(t *testing.T) {
	const window = 8
	fed, _ := newTestFederation(t, 2)
	ids := []string{"a", "b", "c"}
	logs := make(map[string]*seqLog)
	for _, id := range ids {
		logs[id] = &seqLog{}
		if err := fed.SubmitQueryTo(countQuery(id, window), "e00", logs[id].observe); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(2 * time.Second)
	feed := newQuoteFeed(t, fed, 25)
	feed.publish(24)
	fed.Settle(2 * time.Second)

	dest, err := fed.entity("e01")
	if err != nil {
		t.Fatal(err)
	}
	if err := dest.ent.PlaceQuery(priceQuery("b", -10, -1), 1); err != nil { // occupies the ID, matches nothing
		t.Fatal(err)
	}
	feed.publish(16) // in flight when the handoff starts
	moved, err := fed.migrate("e01", ids)
	if moved != 2 || err == nil {
		t.Fatalf("migrate moved %d with error %v, want 2 moved and the blocked one reported", moved, err)
	}
	for id, want := range map[string]string{"a": "e01", "b": "e00", "c": "e01"} {
		if got, _ := fed.QueryEntity(id); got != want {
			t.Fatalf("query %s is on %s, want %s", id, got, want)
		}
	}
	if _, err := dest.ent.RemoveQuery("b"); err != nil {
		t.Fatalf("the handoff removed a placement it did not prepare: %v", err)
	}
	feed.publish(16)
	fed.Settle(2 * time.Second)
	for _, id := range ids {
		assertExactlyOnce(t, id, logs[id], feed.published, window)
	}
	commits, rollbacks := 0, 0
	for _, r := range fed.Migrations() {
		switch {
		case r.Outcome == "commit" && r.Query != "b":
			commits++
		case r.Outcome == "rollback" && r.Query == "b":
			rollbacks++
		}
	}
	if commits != 2 || rollbacks != 1 {
		t.Fatalf("history %+v, want commits for a and c and a rollback for b", fed.Migrations())
	}
	// Nothing stays marked migrating: the blocked query can move later.
	if err := fed.MigrateQuery("b", "e01"); err != nil {
		t.Fatalf("second attempt after the blocker left: %v", err)
	}
}

// TestHandoffGroupFromTwoSources: a target takes queries from two live
// sources in one handoff — each source pauses once, on its own — while
// tuples are in flight on a reordering transport.
func TestHandoffGroupFromTwoSources(t *testing.T) {
	const window = 16
	fed, plan := newChaosFederation(t, 9, 3, Options{Strategy: dissemination.Balanced, Fanout: 2}, 0, miniFactory)
	logs := map[string]*seqLog{"a": {}, "b": {}, "c": {}}
	for id, host := range map[string]string{"a": "e00", "b": "e01", "c": "e01"} {
		if err := fed.SubmitQueryTo(countQuery(id, window), host, logs[id].observe); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(2 * time.Second)
	plan.SetDefaultFaults(simnet.LinkFaults{Reorder: 0.25, ReorderDelay: 2 * time.Millisecond, Jitter: time.Millisecond})
	plan.SetEnabled(true)
	feed := newQuoteFeed(t, fed, 27)
	feed.publish(48)
	if moved, err := fed.migrate("e02", []string{"a", "b", "c"}); moved != 3 || err != nil {
		t.Fatalf("migrate moved %d, err %v; want 3, nil", moved, err)
	}
	feed.publish(48)
	fed.Settle(2 * time.Second)
	plan.SetEnabled(false)
	fed.Settle(2 * time.Second)
	for id, log := range logs {
		assertExactlyOnce(t, id, log, feed.published, window)
		if host, _ := fed.QueryEntity(id); host != "e02" {
			t.Fatalf("query %s is on %s, want e02", id, host)
		}
	}
}

// TestHandoffWithoutCheckpointPlane: in a federation without checkpoints
// a failed entity's queries go through the same handoff with no state
// source: each is recorded as a stateless recovery and answers again.
func TestHandoffWithoutCheckpointPlane(t *testing.T) {
	fed, _ := newTestFederation(t, 3)
	log := &seqLog{}
	for _, id := range []string{"a", "b"} {
		if err := fed.SubmitQueryTo(countQuery(id, 4), "e01", log.observe); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(2 * time.Second)
	if moved, err := fed.FailEntity("e01"); moved != 2 || err != nil {
		t.Fatalf("FailEntity moved %d, err %v; want 2, nil", moved, err)
	}
	recs := fed.Recoveries()
	if len(recs) != 2 {
		t.Fatalf("recovery history has %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Outcome != "stateless" || r.Failed != "e01" || r.Target == "" || r.Target == "e01" {
			t.Fatalf("recovery %+v, want stateless from e01 onto a survivor", r)
		}
	}
	if len(fed.Migrations()) != 0 {
		t.Fatalf("a recovery left migration records: %+v", fed.Migrations())
	}
	tick := workload.NewTicker(29, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(10)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	counts, _ := log.snapshot()
	if len(counts) != 10 {
		t.Fatalf("recovered queries answered %d of 10 tuples", len(counts))
	}
	for seq, n := range counts {
		if n != 2 {
			t.Fatalf("seq %d produced %d results across the two recovered queries, want 2", seq, n)
		}
	}
}
