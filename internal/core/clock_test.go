package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/workload"
)

// newClockFederation builds a started shard-engine federation (the
// introspectable engine) with a quiet journal. If opts enables
// adaptation, the controller decides every adaptEvery with hysteresis
// 1e-3. A test may close it before it ends.
func newClockFederation(t *testing.T, net *simnet.SimNet, nEntities int, opts Options,
	adaptEvery time.Duration) *Federation {
	t.Helper()
	opts.Fanout = 3
	opts.Logger = obslog.New(obslog.NewJournal(obslog.DefaultJournalCapacity), nil)
	fed := buildFederation(t, net, opts, nEntities, 2, shardFactory)
	fed.adaptEvery, fed.adaptHysteresis = adaptEvery, 1e-3
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestWatchdogsEvaluateOncePerDigestPeriod pins the one-clock rule on
// the portal's configuration — tracing on and the stats plane, with its
// latency attribution and engine introspection, in background mode: each
// watchdog makes exactly
// one verdict pass per digest period, so the window drop_rate and
// ring_occupancy_p99 are differenced over is one period. (With a private
// watchdog ticker beside the stats plane's it was two passes per period
// at a random phase.)
func TestWatchdogsEvaluateOncePerDigestPeriod(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	fed := newClockFederation(t, net, 3, Options{}, 0)
	defer fed.Close()
	if err := fed.SubmitQueryTo(priceQuery("q", 0, 1000), "e00", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.EnableTracing(4); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableStatsPlane(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	slo, backpressure := fed.lat.Load().rules, fed.stats.eng.rules
	root, _ := fed.coord.Root()
	node := fed.stats.nodes[string(root)]
	periods := func() int64 { return int64(node.Snapshot()[string(root)].Seq) }

	tick := workload.NewTicker(1, 100, 1.2)
	waitUntil(t, 10*time.Second, "ten digest periods", func() bool {
		_ = fed.Publish("quotes", tick.Batch(20))
		return periods() >= 10
	})
	// Close halts the clock and waits for the tick in flight, so the
	// counters below are final.
	fed.Close()
	n := periods()
	for name, w := range map[string]*ruleWatch{"slo": slo, "backpressure": backpressure} {
		if got := w.evals.Load(); got != n {
			t.Errorf("%s watchdog evaluated %d times in %d digest periods, want one per period", name, got, n)
		}
	}
}

// TestInterestRefreshRunsOnTheClock: Options.InterestRefresh is one job
// on the control clock. A relay of an entity that joined after Start is
// covered — it re-announces its interest upward on every tick although
// no placement asked it to — and once Close has returned nothing more
// is sent.
func TestInterestRefreshRunsOnTheClock(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	const period = 2 * time.Millisecond
	fed := newClockFederation(t, net, 2, Options{InterestRefresh: period}, 0)
	defer fed.Close()
	if err := fed.JoinEntity("e09", simnet.Point{X: 90}, 2, shardFactory); err != nil {
		t.Fatal(err)
	}
	rid := relayID("e09", "quotes")
	parent := fed.DisseminationTree("quotes").Parent(rid)
	up := func() int64 { return net.Traffic().LinkBytes(rid, parent) }
	waitUntil(t, 10*time.Second, "a first refresh from the joined relay", func() bool { return up() > 0 })
	first := up()
	waitUntil(t, 10*time.Second, "a second refresh", func() bool { return up() > first })

	fed.Close()
	closed := up()
	time.Sleep(20 * period)
	if got := up(); got != closed {
		t.Fatalf("refreshes sent after Close returned: %d → %d bytes upward", closed, got)
	}
}

// TestCloseStopsTheClockUnderLoad: every periodic plane on (stats,
// watchdogs, checkpoints, adaptation, profiling, interest refresh),
// tuples flowing, Close while ticks are in flight. Close must return, a
// second Close must be a no-op, no job may run once Close has returned,
// and the process must be back to its pre-New goroutine count.
func TestCloseStopsTheClockUnderLoad(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	baseline := runtime.NumGoroutine()

	const period = 2 * time.Millisecond
	fed := newClockFederation(t, net, 3, Options{
		EnableAdaptation: true, InterestRefresh: period}, period)
	for i := 0; i < 4; i++ {
		if err := fed.SubmitQueryTo(countQuery(fmt.Sprintf("agg%d", i), 16), "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fed.EnableTracing(4); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableStatsPlane(period); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableCheckpoints(period, 2); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableProfiling(t.TempDir(), 25*period); err != nil {
		t.Fatal(err)
	}
	var probe atomic.Int64
	fed.every(period, func() { probe.Add(1) })
	slo, backpressure, ckpt := fed.lat.Load().rules, fed.stats.eng.rules, fed.ckpt

	stop := make(chan struct{})
	var publisher sync.WaitGroup
	publisher.Add(1)
	go func() {
		defer publisher.Done()
		tick := workload.NewTicker(1, 100, 1.2)
		for {
			select {
			case <-stop:
				return
			default:
				_ = fed.Publish("quotes", tick.Batch(20)) // errors once closed
			}
		}
	}()
	waitUntil(t, 10*time.Second, "every job to have ticked", func() bool {
		return probe.Load() > 5 && slo.evals.Load() > 5 && backpressure.evals.Load() > 5 &&
			ckpt.writes.Value() > 0
	})

	closed := make(chan struct{})
	go func() {
		fed.Close()
		fed.Close() // no-op
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return with ticks in flight")
	}
	// A registration on the halted clock is inert.
	fed.every(period, func() { probe.Add(1) })
	ran := func() [4]int64 {
		return [4]int64{probe.Load(), slo.evals.Load(), backpressure.evals.Load(), ckpt.writes.Value()}
	}
	before := ran()
	time.Sleep(20 * period)
	if after := ran(); after != before {
		t.Errorf("jobs ran after Close returned: probe/slo/backpressure/checkpoint counts %v -> %v", before, after)
	}
	close(stop)
	publisher.Wait()
	waitUntil(t, 10*time.Second, "goroutines to return to the pre-New baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
