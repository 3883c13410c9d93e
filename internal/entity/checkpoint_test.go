package entity

import (
	"testing"
	"time"

	"sspd/internal/simnet"
)

// With dedup on and a cut restored, live tuples at or below the mark
// must be dropped as stale and everything above processed exactly once.
func TestIngestDedupFiltersStale(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	e.SetIngestDedup(true)
	if err := e.PrepareQuery(aggQuerySpec("q1", 4), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreQuery("q1", nil, map[string]uint64{"quotes": 10}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ResumeQuery("q1", nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(5); i <= 15; i++ {
		e.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	if got := log.count("q1"); got != 5 {
		t.Fatalf("results = %d, want 5 (seqs 11..15)", got)
	}
	if got := e.StaleDrops(); got != 6 {
		t.Fatalf("stale drops = %d, want 6 (seqs 5..10)", got)
	}
	pq, _, err := e.lookupQuery("q1")
	if err != nil {
		t.Fatal(err)
	}
	if marks := pq.gate.cut(); marks["quotes"] != 15 {
		t.Fatalf("marks = %v, want quotes=15", marks)
	}
	// Dedup off again: the same stale seq flows through.
	e.SetIngestDedup(false)
	e.Ingest(quote(3, "ibm", 50, 1))
	net.Quiesce(time.Second)
	if got := log.count("q1"); got != 6 {
		t.Fatalf("dedup-off results = %d, want 6", got)
	}
}

// CheckpointQuery must capture a consistent cut — marks covering every
// processed tuple and a restorable state — and resume processing
// afterwards with nothing lost.
func TestCheckpointQueryCutAndResume(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	e.SetIngestDedup(true)
	if err := e.PlaceQuery(aggQuerySpec("q1", 8), 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		e.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)

	c, err := e.CheckpointQuery("q1")
	if err != nil || !c.Stateful {
		t.Fatalf("checkpoint: %v stateful=%v", err, c.Stateful)
	}
	if c.Bytes <= 0 || len(c.State) == 0 {
		t.Fatalf("empty state: %d bytes, %d frags", c.Bytes, len(c.State))
	}
	if c.Cut["quotes"] != 20 {
		t.Fatalf("cut = %v, want quotes=20", c.Cut)
	}
	// The query keeps running after the checkpoint.
	for i := uint64(21); i <= 25; i++ {
		e.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	if got := log.count("q1"); got != 25 {
		t.Fatalf("post-checkpoint results = %d, want 25", got)
	}

	// Restore the cut on a fresh entity and replay an overlapping
	// suffix: only seqs above the mark process, and the window is
	// still warm (count 8, not restarted).
	net2 := simnet.NewSim(nil)
	t.Cleanup(func() { net2.Close() })
	e2, err := New("e2", net2, testCatalog(t), 1, miniFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	log2 := &valueLog{}
	e2.SetResultHandler(log2.handle)
	e2.SetIngestDedup(true)
	if err := e2.PrepareQuery(aggQuerySpec("q1", 8), 1); err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreQuery("q1", c.State, c.Cut); err != nil {
		t.Fatal(err)
	}
	for i := uint64(15); i <= 23; i++ { // what the gate buffered overlaps the cut
		e2.Ingest(quote(i, "ibm", 50, 1))
	}
	if _, _, err := e2.ResumeQuery("q1", nil); err != nil {
		t.Fatal(err)
	}
	net2.Quiesce(time.Second)
	if got := log2.count("q1"); got != 3 {
		t.Fatalf("restored results = %d, want 3 (seqs 21..23)", got)
	}
	if v := log2.last("q1"); v != 8 {
		t.Fatalf("window continuity broken after restore: count %v, want 8", v)
	}
}

func TestCheckpointQueryErrors(t *testing.T) {
	e, _, _ := newTestEntity(t, 1)
	if _, err := e.CheckpointQuery("nope"); err == nil {
		t.Fatal("unknown query accepted")
	}
	if err := e.RestoreQuery("nope", nil, nil); err == nil {
		t.Fatal("restore of unknown query accepted")
	}
	if _, err := e.DetachQuery("nope"); err == nil {
		t.Fatal("detach of unknown query accepted")
	}
	e.Close()
	if _, err := e.CheckpointQuery("nope"); err == nil {
		t.Fatal("closed entity checkpointed")
	}
}

// StaleDrops totals the tuples dropped as stale (at or below a gate's
// mark) across all queries — replay duplicates suppressed by dedup or
// by a restored cut.
func (e *Entity) StaleDrops() int64 {
	total := int64(0)
	for _, g := range e.gates() {
		g.mu.Lock()
		total += g.stale
		g.mu.Unlock()
	}
	return total
}
