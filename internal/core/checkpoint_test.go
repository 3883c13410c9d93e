package core

import (
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// CheckpointTick runs one checkpoint sweep: snapshot + replicate every
// non-migrating query and anti-entropy the replica groups. Tests call it
// when the plane was enabled with a non-positive interval.
func (f *Federation) CheckpointTick() {
	if p := f.ckptRef(); p != nil {
		p.tick()
	}
}

// RecoveryReplayFetched reports the total tuples fetched from the replay
// rings during recoveries (sspd_recovery_replay_fetched_total).
func (f *Federation) RecoveryReplayFetched() int64 { return f.recReplayFetched.Value() }

// EntityFailErrors reports detector-confirmed expulsions whose
// FailEntity call failed.
func (f *Federation) EntityFailErrors() int64 { return f.entityFailErrors.Value() }

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// One checkpoint sweep must write a durable record, reach quorum, and
// trim the replay ring up to the quorum-acked mark.
func TestCheckpointTickQuorumAndTrim(t *testing.T) {
	fed, _ := newTestFederation(t, 3)
	log := &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", 8), "e00", log.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(0, 2); err == nil {
		t.Fatal("double enable accepted")
	}

	tick := workload.NewTicker(3, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(100)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	fed.CheckpointTick()
	waitUntil(t, 2*time.Second, "checkpoint quorum", func() bool {
		return fed.Checkpoints().QuorumAcked >= 1
	})
	fed.Settle(2 * time.Second)
	info := fed.Checkpoints()
	if !info.Enabled || info.Replicas != 2 || info.Quorum != 2 {
		t.Fatalf("info = %+v", info)
	}
	if info.Writes != 1 { // the agg query's record
		t.Fatalf("writes = %d, want 1", info.Writes)
	}
	if info.WireBytes <= 0 {
		t.Fatalf("no wire bytes accounted")
	}
	if info.Corrupt != 0 {
		t.Fatalf("clean run counted %d corrupt records", info.Corrupt)
	}
	// Quorum ack advanced the replay-ring trim floor to the agg query's
	// mark, which covers every published tuple.
	waitUntil(t, 2*time.Second, "ring trim", func() bool {
		return fed.Checkpoints().RingTuples == 0
	})
	// New traffic re-fills the ring until the next quorum-acked sweep.
	if err := fed.Publish("quotes", tick.Batch(40)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	if got := fed.Checkpoints().RingTuples; got != 40 {
		t.Fatalf("ring holds %d tuples, want 40", got)
	}
	if len(fed.Journal().Since(0, "ckpt.replicate")) == 0 {
		t.Fatal("no ckpt.replicate events journaled")
	}
}

// A checkpoint holds each query it captures. A migration that meets one
// in flight waits for it instead of failing with "already migrating", so
// LeaveEntity and Rebalance keep working beside the periodic sweep.
func TestMigrationWaitsForCheckpointInFlight(t *testing.T) {
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	fed, _ := newTestFederationOn(t, 3, func(name string, c *stream.Catalog) engine.Processor {
		return &holdingDrainEngine{MiniEngine: engine.NewMini(name, c), armed: &armed, held: held, release: release}
	})
	if err := fed.SubmitQueryTo(countQuery("agg", 8), "e00", nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(0, 2); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	armed.Store(true)
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		fed.CheckpointTick()
	}()
	<-held // the sweep is inside agg's capture
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	if err := fed.MigrateQuery("agg", "e01"); err != nil {
		t.Fatalf("migration beside a checkpoint in flight: %v", err)
	}
	<-swept
}

// holdingDrainEngine is a MiniEngine whose first Drain after armed is
// set blocks until release: a capture that stays in flight for as long
// as a test needs.
type holdingDrainEngine struct {
	*engine.MiniEngine
	armed         *atomic.Bool
	held, release chan struct{}
}

func (h *holdingDrainEngine) Drain(time.Duration) bool {
	if h.armed.CompareAndSwap(true, false) {
		close(h.held)
		<-h.release
	}
	return true
}

// Satellite: a detector-confirmed expulsion whose FailEntity errors
// must be counted and journaled, never silently dropped.
func TestExpelConfirmedCountsErrors(t *testing.T) {
	fed, _ := newTestFederation(t, 2)
	fed.expelConfirmed("no-such-entity")
	if got := fed.EntityFailErrors(); got != 1 {
		t.Fatalf("EntityFailErrors = %d, want 1", got)
	}
	if len(fed.Journal().Since(0, "detector.expel_failed")) != 1 {
		t.Fatal("failed expulsion not journaled as detector.expel_failed")
	}
	// A successful expulsion does not count.
	if _, err := fed.FailEntity("e01"); err != nil {
		t.Fatal(err)
	}
	if got := fed.EntityFailErrors(); got != 1 {
		t.Fatalf("EntityFailErrors after clean expulsion = %d, want 1", got)
	}
}

// RemoveQuery must unpin the removed query's streams from the replay
// ring floor.
func TestRemoveQueryUnpinsRing(t *testing.T) {
	fed, _ := newTestFederation(t, 3)
	log := &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", 8), "e00", log.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(0, 2); err != nil {
		t.Fatal(err)
	}
	tick := workload.NewTicker(3, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(30)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	fed.CheckpointTick() // marks agg as written; ring pinned until quorum
	fed.Settle(2 * time.Second)
	if err := fed.RemoveQuery("agg"); err != nil {
		t.Fatal(err)
	}
	p := fed.ckptRef()
	p.mu.Lock()
	_, written := p.written["agg"]
	p.mu.Unlock()
	if written {
		t.Fatal("removed query still pins the replay ring")
	}
}
