package entity

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

func aggQuerySpec(id string, window int) engine.QuerySpec {
	return engine.QuerySpec{
		ID:     id,
		Source: "quotes",
		Agg: &engine.AggSpec{Fn: 0 /* AggCount */, ValueField: "price",
			GroupField: "", Window: stream.CountWindow(window)},
	}
}

// handoffWait bounds a test capture's waits; the tests' networks go
// quiet at once, so it is never reached.
const handoffWait = time.Second

// capture closes one query's gate and takes its cut, as a handoff's
// source half does.
func capture(t *testing.T, e *Entity, id string) Captured {
	t.Helper()
	c := e.CaptureQueries([]string{id}, handoffWait)[0]
	if c.Err != nil {
		t.Fatalf("capture %s: %v", id, c.Err)
	}
	return c
}

// pauseQuery closes a query's gate and nothing else.
func pauseQuery(t *testing.T, e *Entity, id string) {
	t.Helper()
	pq, _, err := e.lookupQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	pq.gate.pause()
}

func TestPauseBuffersAndResumeReplays(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	if err := e.PlaceQuery(aggQuerySpec("q1", 8), 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		e.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	if got := log.count("q1"); got != 10 {
		t.Fatalf("pre-pause results = %d, want 10", got)
	}
	if c := capture(t, e, "q1"); c.Cut["quotes"] != 9 || !c.Stateful || c.Bytes <= 0 {
		t.Fatalf("capture = cut %v stateful %v bytes %d, want quotes=9 with state", c.Cut, c.Stateful, c.Bytes)
	}
	for i := uint64(10); i < 25; i++ {
		e.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	if got := log.count("q1"); got != 10 {
		t.Fatalf("paused query still produced: %d results", got)
	}
	n, _, err := e.ResumeQuery("q1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("replayed %d, want 15", n)
	}
	net.Quiesce(time.Second)
	if got := log.count("q1"); got != 25 {
		t.Fatalf("post-resume results = %d, want 25", got)
	}
	if c := e.CaptureQueries([]string{"nope"}, handoffWait)[0]; c.Err == nil {
		t.Error("capture of unknown query accepted")
	}
	if _, _, err := e.ResumeQuery("nope", nil); err == nil {
		t.Error("resume of unknown query accepted")
	}
}

// newEntityPair builds a source and a destination entity on one network.
func newEntityPair(t *testing.T) (net *simnet.SimNet, src, dst *Entity, srcLog, dstLog *valueLog) {
	t.Helper()
	net = simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	mk := func(id string) (*Entity, *valueLog) {
		e, err := New(id, net, testCatalog(t), 1, miniFactory)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		log := &valueLog{}
		e.SetResultHandler(log.handle)
		return e, log
	}
	src, srcLog = mk("src")
	dst, dstLog = mk("dst")
	return net, src, dst, srcLog, dstLog
}

func TestMigrationAcrossEntities(t *testing.T) {
	net, src, dst, srcLog, dstLog := newEntityPair(t)

	// Windowed count over 8 tuples: once warm, every result value is 8
	// — the order-insensitive continuity signal.
	spec := aggQuerySpec("q1", 8)
	if err := src.PlaceQuery(spec, 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		src.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)

	// The full entity-level handoff, as the federation drives it.
	if err := dst.PrepareQuery(spec, 1); err != nil {
		t.Fatal(err)
	}
	c := capture(t, src, "q1")
	if c.Cut["quotes"] != 19 || !c.Stateful || c.Bytes <= 0 {
		t.Fatalf("capture = cut %v stateful %v bytes %d, want quotes=19 with state", c.Cut, c.Stateful, c.Bytes)
	}
	// Tuples landing on both sides during the overlap: the source
	// buffers seqs 20-24, the destination 22-27 — dedup must replay
	// 20-27 exactly once.
	for i := uint64(20); i < 25; i++ {
		src.Ingest(quote(i, "ibm", 50, 1))
	}
	for i := uint64(22); i < 28; i++ {
		dst.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	if err := dst.RestoreQuery("q1", c.State, c.Cut); err != nil {
		t.Fatal(err)
	}
	buffered, err := src.DetachQuery("q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(buffered) != 5 {
		t.Fatalf("source buffered %d, want 5", len(buffered))
	}
	replayed, dropped, err := dst.ResumeQuery("q1", buffered)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 8 || dropped != 0 {
		t.Fatalf("replayed/dropped = %d/%d, want 8/0", replayed, dropped)
	}
	net.Quiesce(time.Second)

	// Every tuple processed exactly once: 20 at the source, 8 replayed.
	if got := srcLog.count("q1"); got != 20 {
		t.Errorf("source results = %d, want 20", got)
	}
	if got := dstLog.count("q1"); got != 8 {
		t.Errorf("destination results = %d, want 8", got)
	}
	// Window continuity: the destination's window must still be full
	// (value 8), not restarted empty.
	dst.Ingest(quote(100, "ibm", 50, 1))
	net.Quiesce(time.Second)
	if got := dstLog.count("q1"); got != 9 {
		t.Fatalf("post-migration result missing: %d", got)
	}
	if v := dstLog.last("q1"); v != 8 {
		t.Fatalf("window continuity broken: count = %v, want 8", v)
	}
	// The destination's high-water carries on from the source's, so the
	// next hop's cut is right even before another tuple of a stream.
	if c := capture(t, dst, "q1"); c.Cut["quotes"] != 100 {
		t.Fatalf("destination cut = %v, want quotes=100", c.Cut)
	}
}

// TestHandoffOntoReceivingDestination: the destination's gate buffers
// from PREPARE on, the source processes until its capture, so what
// reaches the source before the capture and the destination after the
// prepare is in the state AND in the destination's buffer. The source's
// cut must keep the destination from replaying it: 28 tuples, 28
// results, and the destination replays only what the source did not
// process.
func TestHandoffOntoReceivingDestination(t *testing.T) {
	net, src, dst, srcLog, dstLog := newEntityPair(t)
	spec := aggQuerySpec("q1", 8)
	if err := src.PlaceQuery(spec, 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		src.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)

	if err := dst.PrepareQuery(spec, 1); err != nil {
		t.Fatal(err)
	}
	// Both entities receive the stream now; the source is not paused yet.
	for i := uint64(16); i < 20; i++ {
		src.Ingest(quote(i, "ibm", 50, 1))
		dst.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	c := capture(t, src, "q1")
	if c.Cut["quotes"] != 19 {
		t.Fatalf("cut = %v, want quotes=19", c.Cut)
	}
	for i := uint64(20); i < 25; i++ {
		src.Ingest(quote(i, "ibm", 50, 1))
	}
	for i := uint64(22); i < 28; i++ {
		dst.Ingest(quote(i, "ibm", 50, 1))
	}
	net.Quiesce(time.Second)
	if err := dst.RestoreQuery("q1", c.State, c.Cut); err != nil {
		t.Fatal(err)
	}
	buffered, err := src.DetachQuery("q1")
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := dst.ResumeQuery("q1", buffered)
	if err != nil {
		t.Fatal(err)
	}
	net.Quiesce(time.Second)
	if replayed != 8 {
		t.Errorf("destination replayed %d tuples, want 8 (seqs 20..27; 16..19 are in the state)", replayed)
	}
	if got := dst.StaleDrops(); got != 4 {
		t.Errorf("cut dropped %d buffered tuples, want 4 (seqs 16..19)", got)
	}
	if s, d := srcLog.count("q1"), dstLog.count("q1"); s != 20 || d != 8 {
		t.Fatalf("results = %d at the source + %d at the destination, want 20 + 8 = 28 tuples once each", s, d)
	}
	if v := dstLog.last("q1"); v != 8 {
		t.Fatalf("window continuity broken: count = %v, want 8", v)
	}
}

// TestResumeInPlaceKeepsReorderedBuffer: a restored cut filters a
// destination's first open and nothing else. A gate reopened in place
// must replay its whole buffer — under reordering it holds tuples below
// the gate's own high-water that the query has not processed — with
// dedup off and on.
func TestResumeInPlaceKeepsReorderedBuffer(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		t.Run(fmt.Sprintf("dedup=%v", dedup), func(t *testing.T) {
			e, net, _ := newTestEntity(t, 1)
			seen := &seqRecorder{}
			e.SetResultHandler(seen.handle)
			e.SetIngestDedup(dedup)
			if err := e.PlaceQuery(aggQuerySpec("q1", 4), 1); err != nil {
				t.Fatal(err)
			}
			for _, seq := range []uint64{1, 2, 3, 4, 5, 6, 10} {
				e.Ingest(quote(seq, "ibm", 50, 1))
			}
			net.Quiesce(time.Second)
			if c := capture(t, e, "q1"); c.Cut["quotes"] != 10 {
				t.Fatalf("cut = %v, want quotes=10", c.Cut)
			}
			for _, seq := range []uint64{9, 7, 8} {
				e.Ingest(quote(seq, "ibm", 50, 1))
			}
			n, _, err := e.ResumeQuery("q1", nil)
			if err != nil {
				t.Fatal(err)
			}
			net.Quiesce(time.Second)
			if n != 3 {
				t.Fatalf("resume in place replayed %d tuples, want 3", n)
			}
			want := []uint64{1, 2, 3, 4, 5, 6, 10, 7, 8, 9}
			if got := seen.seqs(); !slices.Equal(got, want) {
				t.Fatalf("processed seqs %v, want %v (the buffer replayed in seq order)", got, want)
			}
		})
	}
}

// TestNoCutIsNotCutZero: a destination restored without a cut (a
// stateless recovery, a source that had seen nothing) drops nothing —
// not even a buffered tuple of Seq 0, which "mark 0" would cover.
func TestNoCutIsNotCutZero(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		e, net, log := newTestEntity(t, 1)
		e.SetIngestDedup(dedup)
		if err := e.PrepareQuery(aggQuerySpec("q1", 4), 1); err != nil {
			t.Fatal(err)
		}
		e.Ingest(quote(0, "ibm", 50, 1))
		e.Ingest(quote(1, "ibm", 50, 1))
		if err := e.RestoreQuery("q1", nil, nil); err != nil {
			t.Fatal(err)
		}
		n, _, err := e.ResumeQuery("q1", nil)
		if err != nil {
			t.Fatal(err)
		}
		net.Quiesce(time.Second)
		if n != 2 || log.count("q1") != 2 {
			t.Fatalf("dedup=%v: replayed %d, %d results, want 2 and 2 (seq 0 included)", dedup, n, log.count("q1"))
		}
		// And the opened gate lets the next live tuple through.
		e.Ingest(quote(2, "ibm", 50, 1))
		net.Quiesce(time.Second)
		if log.count("q1") != 3 {
			t.Fatalf("dedup=%v: %d results after a live tuple, want 3", dedup, log.count("q1"))
		}
	}
}

// seqRecorder remembers the input seq of every result, in order.
type seqRecorder struct {
	mu  sync.Mutex
	got []uint64
}

func (r *seqRecorder) handle(_ string, b stream.Batch) {
	r.mu.Lock()
	for _, t := range b {
		r.got = append(r.got, t.Seq)
	}
	r.mu.Unlock()
}

func (r *seqRecorder) seqs() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.got)
}

// valueLog counts results and remembers each query's last aggregate
// value (field 1 of the agg output schema).
type valueLog struct {
	mu    sync.Mutex
	n     map[string]int
	lastV map[string]float64
}

func (l *valueLog) handle(queryID string, b stream.Batch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == nil {
		l.n = map[string]int{}
		l.lastV = map[string]float64{}
	}
	l.n[queryID] += len(b)
	if t := b[len(b)-1]; len(t.Values) > 1 {
		l.lastV[queryID] = t.Value(1).AsFloat()
	}
}

func (l *valueLog) count(q string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n[q]
}

func (l *valueLog) last(q string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastV[q]
}
