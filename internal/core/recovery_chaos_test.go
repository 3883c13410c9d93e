package core

import (
	"fmt"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// TestHardKillRecoveryZeroLoss is the headline robustness property of
// the checkpoint plane: an entity running a stateful windowed aggregate
// AND a windowed join is hard-killed (kill -9: no goodbye, no state
// handoff) while tuples are published into the outage. After the
// coordinator expels it, both queries must come back on a survivor
// restored from their last quorum-acked checkpoint, the outage-window
// tuples must be replayed from the ring, and the final result stream
// must show every published tuple exactly once with window contents
// carried across the crash. The 64-query case restores a whole entity's
// load at once, on either engine.
func TestHardKillRecoveryZeroLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, entity.EngineFactory)
	}{
		// A zero interval drives the sweep by hand (CheckpointTick); a
		// positive one leaves it to the control clock, the mode README
		// advertises.
		{"manual", func(t *testing.T, f entity.EngineFactory) { hardKillRecoveryZeroLoss(t, f, 0) }},
		{"periodic", func(t *testing.T, f entity.EngineFactory) { hardKillRecoveryZeroLoss(t, f, 20*time.Millisecond) }},
		{"64-queries", hardKillManyQueriesZeroLoss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range bothEngines {
				t.Run(eng.name, func(t *testing.T) { tc.run(t, eng.factory) })
			}
		})
	}
}

func hardKillRecoveryZeroLoss(t *testing.T, factory entity.EngineFactory, interval time.Duration) {
	const window = 64
	fed, _ := newTestFederationOn(t, 4, factory)

	aggLog, joinLog := &seqLog{}, &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", window), "e01", aggLog.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(symbolJoinQuery("join"), "e01", joinLog.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(interval, 2); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// Fix the trade-side join windows before any quotes, so each
	// quote's match count is independent of recovery timing.
	tick := workload.NewTicker(7, 100, 1.2)
	var trades stream.Batch
	for i := 0; i < 200; i++ {
		trades = append(trades, tick.NextTrade())
	}
	if err := fed.Publish("trades", trades); err != nil {
		t.Fatal(err)
	}
	drainAll(fed)

	var quotes []stream.Batch
	publish := func(k int) {
		t.Helper()
		b := tick.Batch(k)
		quotes = append(quotes, b)
		if err := fed.Publish("quotes", b); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the windows past one full turn, then wait for a durable cut
	// that covers the warm-up: both queries quorum-acked at a mark no
	// older than the last warm-up quote.
	publish(100)
	fed.Settle(2 * time.Second)
	if interval <= 0 {
		fed.CheckpointTick()
	}
	warm := quotes[0][len(quotes[0])-1].Seq
	durable := func(query string) bool { return ackedMark(fed, query, "quotes") >= warm }
	waitUntil(t, 5*time.Second, "checkpoint quorum", func() bool {
		return fed.Checkpoints().QuorumAcked >= 2 && durable("agg") && durable("join")
	})
	fed.Settle(2 * time.Second)

	// Hard crash: the entity vanishes mid-operation. Tuples published
	// into the outage reach no query — only the replay ring holds them.
	if err := fed.KillEntity("e01"); err != nil {
		t.Fatal(err)
	}
	const outage = 60
	publish(outage)

	// Expulsion triggers checkpoint-backed recovery: re-place, restore,
	// replay the outage suffix.
	moved, err := fed.FailEntity("e01")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("recovered %d queries, want 2", moved)
	}
	fed.Settle(2 * time.Second)

	// Life goes on: post-recovery traffic flows through the repaired
	// tree to the new hosts.
	publish(50)
	fed.Settle(2 * time.Second)

	// Both recoveries restored durable state — not stateless restarts.
	recs := fed.Recoveries()
	if len(recs) != 2 {
		t.Fatalf("recovery history has %d records, want 2: %+v", len(recs), recs)
	}
	replayed := int64(0)
	for _, r := range recs {
		if r.Outcome != "restored" {
			t.Fatalf("recovery %s: outcome %s (%s), want restored", r.Query, r.Outcome, r.Reason)
		}
		if r.Failed != "e01" || r.Target == "e01" || r.Target == "" {
			t.Fatalf("recovery %s: failed=%s target=%s", r.Query, r.Failed, r.Target)
		}
		if r.Seq == 0 {
			t.Fatalf("recovery %s restored from seq 0", r.Query)
		}
		replayed += int64(r.Replayed)
	}
	if replayed == 0 {
		t.Fatal("no tuples replayed despite an outage window")
	}

	// Replay amplification is bounded: at worst each recovery group
	// fetches the outage suffix once.
	if fetched := fed.RecoveryReplayFetched(); fetched == 0 || fetched > 2*outage {
		t.Fatalf("replay fetched %d tuples for a %d-tuple outage (bound 2x)", fetched, outage)
	}

	// Zero committed-result loss, zero duplication: every published
	// quote produced its aggregate result exactly once, across the
	// crash, the replay, and the post-recovery traffic. (A periodic sweep
	// in flight holds the query's gate paused past Settle, so wait for
	// the results rather than for the network.)
	published := 0
	for _, b := range quotes {
		published += len(b)
	}
	waitUntil(t, 5*time.Second, "post-recovery results", func() bool {
		_, values := aggLog.snapshot()
		return len(values) >= published
	})
	aggCounts, aggValues := aggLog.snapshot()
	for _, b := range quotes {
		for _, tu := range b {
			switch aggCounts[tu.Seq] {
			case 1:
			case 0:
				t.Fatalf("tuple seq %d lost across the crash", tu.Seq)
			default:
				t.Fatalf("tuple seq %d processed %d times (replay duplicated)",
					tu.Seq, aggCounts[tu.Seq])
			}
		}
	}
	if len(aggValues) != published {
		t.Fatalf("agg results = %d, want %d", len(aggValues), published)
	}
	assertWindowContinuity(t, aggValues, window)

	// The join's window state survived the crash: per-seq match counts
	// equal an oracle fed the identical tuple sequence.
	oracle := engine.NewMini("oracle", workload.Catalog(100, 20))
	defer oracle.Close()
	oracleJoin := &seqLog{}
	if err := oracle.Register(symbolJoinQuery("join"), oracleJoin.observe); err != nil {
		t.Fatal(err)
	}
	oracle.IngestBatch(trades)
	for _, b := range quotes {
		oracle.IngestBatch(b)
	}
	wantJoin, _ := oracleJoin.snapshot()
	waitUntil(t, 5*time.Second, "post-recovery join results", func() bool {
		counts, _ := joinLog.snapshot()
		return len(counts) >= len(wantJoin)
	})
	joinCounts, _ := joinLog.snapshot()
	if len(joinCounts) != len(wantJoin) {
		t.Fatalf("join produced results for %d seqs, oracle %d", len(joinCounts), len(wantJoin))
	}
	for seq, want := range wantJoin {
		if joinCounts[seq] != want {
			t.Fatalf("join seq %d: %d results, oracle %d", seq, joinCounts[seq], want)
		}
	}

	// No silently dropped expulsion errors (satellite), and the journal
	// tells the whole story: durable write → quorum → recovery.
	if got := fed.EntityFailErrors(); got != 0 {
		t.Fatalf("EntityFailErrors = %d, want 0", got)
	}
	for _, kind := range []string{
		"ckpt.write", "ckpt.replicate", "entity.kill",
		"recovery.start", "recovery.restore", "recovery.done",
	} {
		if len(fed.Journal().Since(0, kind)) == 0 {
			t.Fatalf("journal missing %s events", kind)
		}
	}
}

// ackedMark is the quorum-acked checkpoint cut of query on stream s.
func ackedMark(fed *Federation, query, s string) uint64 {
	p := fed.ckptRef()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ackedMarks[query][s]
}

// hardKillManyQueriesZeroLoss hard-kills an entity that hosts 64
// windowed counts (three entities of four processors) and recovers all
// of them at once: every one restored, nothing lost or duplicated, and
// the replay ring read once per target — not once per query — so the
// tuples fetched stay within twice the outage.
func hardKillManyQueriesZeroLoss(t *testing.T, factory entity.EngineFactory) {
	const (
		window   = 32
		nQueries = 64
		warm     = 200
		outage   = 100
	)
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed := startRefreshing(t, buildFederation(t, net, Options{
		Strategy: dissemination.Balanced,
		Fanout:   2,
	}, 3, 4, factory), 25*time.Millisecond)
	logs := make([]*seqLog, nQueries)
	for i := range logs {
		logs[i] = &seqLog{}
		if err := fed.SubmitQueryTo(countQuery(fmt.Sprintf("q%02d", i), window), "e01", logs[i].observe); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.EnableCheckpoints(0, 2); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(17, 100, 1.2)
	var published stream.Batch
	publish := func(k int) {
		t.Helper()
		b := tick.Batch(k)
		published = append(published, b...)
		if err := fed.Publish("quotes", b); err != nil {
			t.Fatal(err)
		}
	}

	// Warm every window past one full turn, then take a durable cut that
	// covers the warm-up for every query.
	publish(warm)
	fed.Settle(2 * time.Second)
	fed.CheckpointTick()
	last := published[len(published)-1].Seq
	waitUntil(t, 5*time.Second, "64 durable cuts", func() bool {
		for i := 0; i < nQueries; i++ {
			if ackedMark(fed, fmt.Sprintf("q%02d", i), "quotes") < last {
				return false
			}
		}
		return true
	})
	fed.Settle(2 * time.Second)

	if err := fed.KillEntity("e01"); err != nil {
		t.Fatal(err)
	}
	publish(outage)
	moved, err := fed.FailEntity("e01")
	if err != nil {
		t.Fatal(err)
	}
	if moved != nQueries {
		t.Fatalf("recovered %d queries, want %d", moved, nQueries)
	}
	fed.Settle(2 * time.Second)
	publish(100)
	drainAll(fed)

	recs := fed.Recoveries()
	for _, r := range recs {
		if r.Outcome != "restored" {
			t.Fatalf("recovery %s: outcome %s (%s), want restored", r.Query, r.Outcome, r.Reason)
		}
	}
	if len(recs) != nQueries {
		t.Fatalf("%d recoveries, want %d", len(recs), nQueries)
	}
	if fetched := fed.RecoveryReplayFetched(); fetched == 0 || fetched > 2*outage {
		t.Fatalf("replay fetched %d tuples for a %d-tuple outage (bound 2x: one ring read per target)", fetched, outage)
	}
	if got := fed.EntityFailErrors(); got != 0 {
		t.Fatalf("EntityFailErrors = %d, want 0", got)
	}
	for i, log := range logs {
		waitUntil(t, 5*time.Second, "post-recovery results", func() bool {
			_, values := log.snapshot()
			return len(values) >= len(published)
		})
		counts, values := log.snapshot()
		for _, tu := range published {
			if counts[tu.Seq] != 1 {
				t.Fatalf("q%02d: seq %d delivered %d times, want 1", i, tu.Seq, counts[tu.Seq])
			}
		}
		if len(values) != len(published) {
			t.Fatalf("q%02d: %d results, want %d", i, len(values), len(published))
		}
		assertWindowContinuity(t, values, window)
	}
}

// TestRecoveryReemitsResultsAfterTheCut pins what crash recovery
// promises today. Results for tuples at or below the restored
// checkpoint's cut arrive exactly once. Results the dead entity had
// delivered for tuples above the cut arrive a second time, because the
// replay ring re-feeds everything above the cut and no sink remembers
// what it saw: exactly that set is duplicated, and nothing arrives more
// than twice. Sink-side (query, stream, seq) dedup would close the gap
// (ROADMAP).
func TestRecoveryReemitsResultsAfterTheCut(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			fed, _ := newTestFederationOn(t, 3, eng.factory)
			log := &seqLog{}
			if err := fed.SubmitQueryTo(priceQuery("pass", 0, 1000), "e01", log.observe); err != nil {
				t.Fatal(err)
			}
			if err := fed.EnableCheckpoints(0, 2); err != nil {
				t.Fatal(err)
			}
			fed.Settle(2 * time.Second)

			tick := workload.NewTicker(5, 100, 1.2)
			var published stream.Batch
			publish := func(k int) {
				t.Helper()
				b := tick.Batch(k)
				published = append(published, b...)
				if err := fed.Publish("quotes", b); err != nil {
					t.Fatal(err)
				}
				drainAll(fed)
			}
			publish(100)
			fed.CheckpointTick()
			cut := published[len(published)-1].Seq
			waitUntil(t, 5*time.Second, "durable cut", func() bool { return ackedMark(fed, "pass", "quotes") >= cut })
			if got := ackedMark(fed, "pass", "quotes"); got != cut {
				t.Fatalf("checkpoint cut at seq %d, want %d (the last tuple before the sweep)", got, cut)
			}

			// Delivered by e01 after the cut; then e01 dies.
			publish(50)
			killed := published[len(published)-1].Seq
			if err := fed.KillEntity("e01"); err != nil {
				t.Fatal(err)
			}
			if moved, err := fed.FailEntity("e01"); err != nil || moved != 1 {
				t.Fatalf("FailEntity moved %d (%v), want 1", moved, err)
			}
			publish(30)
			if recs := fed.Recoveries(); len(recs) != 1 || recs[0].Outcome != "restored" {
				t.Fatalf("recoveries = %+v, want one restored record", recs)
			}

			counts, _ := log.snapshot()
			for _, tu := range published {
				want := 1
				if tu.Seq > cut && tu.Seq <= killed {
					want = 2
				}
				if counts[tu.Seq] != want {
					t.Fatalf("seq %d (cut %d, kill after %d) delivered %d times, want %d", tu.Seq, cut, killed, counts[tu.Seq], want)
				}
			}
		})
	}
}

// Without checkpoints enabled, FailEntity falls back to the legacy
// stateless re-placement; with checkpoints enabled but no written
// record yet, recovery must degrade to a stateless restart — never
// fail, never restore garbage.
func TestHardKillWithoutCheckpointIsStateless(t *testing.T) {
	fed, _ := newTestFederation(t, 3)
	log := &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", 8), "e01", log.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(0, 2); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	// No CheckpointTick: the kill races ahead of the first checkpoint.
	if err := fed.KillEntity("e01"); err != nil {
		t.Fatal(err)
	}
	moved, err := fed.FailEntity("e01")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	recs := fed.Recoveries()
	if len(recs) != 1 || recs[0].Outcome != "stateless" {
		t.Fatalf("recoveries = %+v, want one stateless record", recs)
	}
	// The query still works on its new host.
	tick := workload.NewTicker(9, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(20)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	counts, _ := log.snapshot()
	if len(counts) != 20 {
		t.Fatalf("post-recovery results for %d seqs, want 20", len(counts))
	}
}
