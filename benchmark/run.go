package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sspd"
	"sspd/internal/metrics"
)

const (
	// satSlices is how many equal slices the closed-loop phase is timed
	// in — 50 ms each on the reference box, at least seven windows of
	// inFlight batches on the slowest workload. Throughput is reported as
	// the mean of the best calmShare of the slices, with their median
	// printed beside it. CPU cost is their median: the guest kernel
	// discounts stolen time from a process's CPU time, so the host does
	// not inflate it, but a slice costs more or less by whether a GC cycle
	// fell into it, and the best tenth — the GC-free slices — moved by 18 %
	// between quiet runs of tcp_churn where the median moved by 4.5 %.
	satSlices = 100
	// inFlight is how many batches the closed-loop publisher keeps in
	// flight ahead of the last batch whose results have all arrived.
	// The shipped engines shed load instead of pushing back (a full
	// query queue or shard ring drops), so a publisher bounded only by
	// Publish would measure how fast tuples can be thrown away. 16
	// batches (1024 tuples) keep both cores busy and stay below the
	// smallest queue in the path (1024 tuples per async-engine query).
	inFlight = 16
	// stallAfter is how long a wait for results goes without progress
	// before the missing results are written off as lost.
	stallAfter = 250 * time.Millisecond
	// The submit/remove probe on a quiescent stream runs once per
	// probeEvery of the run's length, at least probesMin times (the median
	// needs them) and at most probesMax; churnEvery paces the probe when
	// it runs beside the stream.
	probeEvery = 300 * time.Millisecond
	probesMin  = 8
	probesMax  = 32
	churnEvery = 50 * time.Millisecond
	// Set-up is repeated at least setupRepsMin times, and on up to
	// setupRepsMax while the repetitions so far took less than setupBudget:
	// a 5 ms set-up is the noisier for being short, and cheap to repeat.
	// Half of such a set-up is goroutine hand-offs and the 1 ms timer
	// sleeps Settle polls with, which a busy host is slow to wake, and
	// every second one has a GC cycle marking the harness's own heap fall
	// into it: within an hour the median of 50 repetitions of relay_fanout's
	// set-up moved between 7 and 47 ms, their fastest tenth between 5.2 and
	// 5.7 ms. setup_s is therefore the mean of the fastest calmShare of
	// the repetitions, like the other wall-clock figures.
	setupRepsMin = 5
	setupRepsMax = 50
	setupBudget  = 3 * time.Second
)

type runConfig struct {
	W       workloadDef
	Seed    int64
	Seconds float64
	Trace   bool
	OutDir  string
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string
	Correct   bool
	Attempted uint64
	Failed    uint64
	// FailedIn names the phase that returned an error or hit its
	// deadline, if any.
	FailedIn string
	Metrics  map[string]float64
	Verdict  verdict
	Plan     plan
	// Unresolved is set when the generator itself ran late, so the
	// latency figures describe the host, not the system.
	Unresolved bool
	Notes      []string
}

// fixture is one built federation.
type fixture struct {
	transport sspd.Transport
	fed       *sspd.Federation
	catalog   *sspd.Catalog
	// entityOf[i] is where the coordinator placed query i.
	entityOf []string
}

func (f *fixture) close() {
	f.fed.Close()
	_ = f.transport.Close() // teardown; nothing left to lose
}

func newCatalog() *sspd.Catalog { return sspd.NewCatalog(numSymbols, 8) }

// setup builds transport and federation, adds the entities, starts,
// submits every query and lets the registrations settle.
func setup(w workloadDef, specs []placedSpec, col *collector) (*fixture, error) {
	var tr sspd.Transport
	if w.TCP {
		tr = sspd.NewTCPNet()
	} else {
		tr = sspd.NewSimNet(nil)
	}
	cat := newCatalog()
	fed, err := sspd.NewFederation(tr, cat, sspd.Options{Engine: w.Engine, Strategy: w.Strategy})
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	fx := &fixture{transport: tr, fed: fed, catalog: cat, entityOf: make([]string, len(specs))}
	fail := func(err error) (*fixture, error) {
		fx.close()
		return nil, err
	}
	if err := fed.AddSource("quotes", sspd.Point{}, sspd.StreamRate{TuplesPerSec: float64(w.PacedTuplesPerSec), BytesPerTuple: 60}); err != nil {
		return fail(err)
	}
	for i := 0; i < w.Entities; i++ {
		if err := fed.AddEntity(entityName(i), entityPos(i), w.Procs, nil); err != nil {
			return fail(err)
		}
	}
	if err := fed.Start(); err != nil {
		return fail(err)
	}
	for i, ps := range specs {
		where, err := fed.SubmitQuery(ps.Spec, ps.Origin, col.callback(i))
		if err != nil {
			return fail(fmt.Errorf("submit %s: %w", ps.Spec.ID, err))
		}
		fx.entityOf[i] = where
	}
	fx.settle()
	return fx, nil
}

// settle waits for interest registrations to reach the source. SimNet
// reports quiescence exactly; over TCP Settle is a short fixed sleep, so
// it is repeated to cover a 12-hop chain.
func (f *fixture) settle() {
	f.fed.Settle(2 * time.Second)
	if _, sim := f.transport.(*sspd.SimNet); !sim {
		for i := 0; i < 3; i++ {
			f.fed.Settle(2 * time.Second)
		}
	}
}

// publisher drives Federation.Publish for every phase.
type publisher struct {
	fx   *fixture
	pool *pool
	exp  *expectation
	col  *collector
	// lost[q] is the number of query q's results written off after
	// stalls; every later wait target of the query is lowered by it.
	lost []uint64
	rec  *recorder
	// tracing is whether publish spans and result events are being
	// recorded right now.
	tracing bool
	// phaseSpan is the open span of the current phase (parent of the
	// core.publish spans); spanOf remembers each batch's publish span so
	// sampled results can name it as their cause.
	phaseSpan int32
	spanOf    []atomic.Int32
	// inPublish adds up the time spent inside Federation.Publish.
	inPublish time.Duration
	err       error
}

func (p *publisher) publish(k int, ts time.Time) {
	b := p.pool.batch(k, ts)
	t0 := time.Now()
	id := int32(-1)
	if p.tracing {
		// Opened before the call so that a result racing ahead of
		// Publish's return already finds its batch's span.
		id = p.rec.open("core.publish", p.phaseSpan, t0)
		p.spanOf[k].Store(id)
	}
	if err := p.fx.fed.Publish("quotes", b); err != nil && p.err == nil {
		p.err = err
	}
	t1 := time.Now()
	p.inPublish += t1.Sub(t0)
	p.rec.close(id, t1)
}

// setTracing switches span recording on or off; it stays off for good
// when the run has no recorder.
func (p *publisher) setTracing(on bool) {
	p.tracing = on && p.rec != nil
	p.col.sampling.Store(p.tracing)
}

// await waits until every query has delivered its results of batches
// 0..k, and writes off what a stall leaves missing. Waiting for the total
// instead would let a query with few results fall far behind the window
// unseen, into the depth at which the shipped engines drop.
func (p *publisher) await(k int) {
	for q := range p.lost {
		want := p.exp.queryUpTo(q, k)
		if want <= p.lost[q] {
			continue
		}
		want -= p.lost[q]
		if got := p.col.waitFor(q, want, stallAfter); got < want {
			p.lost[q] += want - got
		}
	}
}

// closedLoop publishes batch k once every result of batch k-inFlight and
// earlier has arrived.
func (p *publisher) closedLoop(k int) {
	p.await(k - inFlight)
	p.publish(k, time.Now())
}

// segment is one timed slice of the closed-loop phase.
type segment struct {
	tuplesPerSec, cpuNs float64
	traced              bool
}

// satPhase publishes batches [from, to) closed-loop and times them in
// satSlices slices of equally many batches. A slice is cut on completed
// work — at the moment the publisher has seen the last result of the
// slice's last batch, without draining the window behind it — not where
// the publisher stands: that is up to a window ahead of the results, by an
// amount that moves, and would make the best slices read too high. It
// returns the slices and the share of the phase's expected results that
// arrived. In a traced run every other slice runs with the recorder off,
// so the recorder's cost can be read from one federation in one process.
func (p *publisher) satPhase(from, to int) (segs []segment, delivered float64) {
	per := max((to-from)/satSlices, 1)
	segs = make([]segment, 0, (to-from)/per+1)
	gotBefore := p.col.delivered.Load()
	phaseSpan := p.phaseSpan
	first := from // first batch of the open slice
	cpu0, t0 := processCPU(), time.Now()
	begin := func() {
		p.setTracing(len(segs)%2 == 0)
		if p.tracing {
			p.phaseSpan = p.rec.open("sat.slice", phaseSpan, t0)
		}
	}
	// cut closes the open slice: batches first..done have completed.
	cut := func(done int) {
		cpu1, t1 := processCPU(), time.Now()
		if p.tracing {
			p.rec.close(p.phaseSpan, t1)
		}
		tuples := float64((done - first + 1) * batchSize)
		segs = append(segs, segment{
			tuplesPerSec: tuples / t1.Sub(t0).Seconds(),
			cpuNs:        float64((cpu1 - cpu0).Nanoseconds()) / tuples,
			traced:       p.tracing,
		})
		first, cpu0, t0 = done+1, cpu1, t1
	}
	begin()
	for k := from; k < to; k++ {
		done := k - inFlight
		p.await(done)
		// The last slice takes the remainder, so none is shorter than per.
		if done >= from && (done-from+1)%per == 0 && to-1-done >= per {
			cut(done)
			begin()
		}
		p.publish(k, time.Now())
	}
	p.await(to - 1)
	cut(to - 1)
	p.phaseSpan = phaseSpan
	p.setTracing(true)
	delivered = 1
	if expected := p.exp.upTo(to-1) - p.exp.upTo(from-1); expected > 0 {
		delivered = min(1, float64(p.col.delivered.Load()-gotBefore)/float64(expected))
	}
	return segs, delivered
}

func pick(segs []segment, field func(segment) float64) []float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = field(s)
	}
	return vs
}

// probeTimes are the submit/remove call times of one probe series.
type probeTimes struct {
	submitMs, removeMs []float64
	err                error
}

func (pt *probeTimes) once(fx *fixture, w workloadDef, i int, seed int64) {
	spec := probeSpec(i, seed)
	t0 := time.Now()
	_, err := fx.fed.SubmitQuery(spec, entityPos(i%w.Entities), nil)
	t1 := time.Now()
	if err != nil {
		if pt.err == nil {
			pt.err = err
		}
		return
	}
	err = fx.fed.RemoveQuery(spec.ID)
	t2 := time.Now()
	if err != nil && pt.err == nil {
		pt.err = err
	}
	pt.submitMs = append(pt.submitMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	pt.removeMs = append(pt.removeMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
}

// runWorkload executes one workload once and reports every metric it
// can. The end-to-end figures of a traced run include the recorder's
// cost; the driver reads them only from untraced runs.
func runWorkload(cfg runConfig) runResult {
	w := cfg.W
	res := runResult{Workload: w.Name, Metrics: make(map[string]float64)}
	m := res.Metrics
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.Name] = 0 // a metric the workload does not produce reads 0
		}
	}
	hangPath := filepath.Join(cfg.OutDir, w.Name+".hang.txt")
	failAll := func(phase string, err error) runResult {
		res.FailedIn = phase
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %v", phase, err))
		}
		return res
	}

	gen := newPool(cfg.Seed, poolBatches)
	specs := w.Queries(cfg.Seed, gen.symbols)
	plain := make([]sspd.QuerySpec, len(specs))
	for i := range specs {
		plain[i] = specs[i].Spec
	}
	pl := makePlan(w, cfg.Seconds)
	res.Plan = pl

	oracleStart := time.Now()
	exp, err := buildOracle(gen, pl, plain, newCatalog())
	if err != nil {
		return failAll("oracle", err)
	}
	m["harness.oracle_s"] = time.Since(oracleStart).Seconds()
	totalTuples := pl.total() * batchSize
	if exp.BusySeconds > 0 {
		m["harness.oracle_tuples_per_s"] = float64(totalTuples) / exp.BusySeconds
	}
	res.Attempted = exp.upTo(pl.total()-1) - exp.upTo(pl.satStart()-1)
	col := newCollector(exp, totalTuples)

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder(pl.total() + 4096)
		col.rec = rec
		col.sampleEvery = 1024
	}

	// Set-up, several times over; the last federation is the one the run
	// uses.
	var fx *fixture
	repsMin, repsMax := setupRepsMin, setupRepsMax
	if cfg.Trace {
		repsMin, repsMax = 1, 1
	}
	setupTimes := make([]float64, 0, repsMax)
	var setupErr error
	ok := guard("setup", 60*time.Second, hangPath, func() {
		begin := time.Now()
		for r := 0; r < repsMin || (r < repsMax && time.Since(begin) < setupBudget); r++ {
			if fx != nil {
				fx.close()
			}
			t0 := time.Now()
			fx, setupErr = setup(w, specs, col)
			if setupErr != nil {
				return
			}
			setupTimes = append(setupTimes, time.Since(t0).Seconds())
		}
	})
	if !ok || setupErr != nil {
		return failAll("setup", setupErr)
	}
	// A phase that hit its deadline left the system wedged: closing it
	// could block for ever, and the process is about to exit anyway.
	defer func() {
		if res.FailedIn == "" {
			fx.close()
		}
	}()
	m["setup_s"] = calmBest(setupTimes, false)
	m["harness.setup_median_s"] = median(setupTimes)

	pub := &publisher{fx: fx, pool: gen, exp: exp, col: col, rec: rec, phaseSpan: -1, lost: make([]uint64, len(specs))}
	if rec != nil {
		pub.spanOf = make([]atomic.Int32, pl.total())
		for k := range pub.spanOf {
			pub.spanOf[k].Store(-1)
		}
		pub.setTracing(true)
		col.batchSpan = func(seq uint64) int32 {
			if k := int(seq / batchSize); k < len(pub.spanOf) {
				return pub.spanOf[k].Load()
			}
			return -1
		}
	}
	phase := func(name string, expected time.Duration, fn func()) bool {
		deadline := 3*expected + 10*time.Second
		return guard(name, deadline, hangPath, func() {
			start := time.Now()
			pub.phaseSpan = rec.open("phase."+name, -1, start)
			fn()
			rec.close(pub.phaseSpan, time.Now())
			pub.phaseSpan = -1
		})
	}
	half := time.Duration(cfg.Seconds / 2 * float64(time.Second))
	bytes0, messages0 := fx.transport.Traffic().TotalBytes(), fx.transport.Traffic().TotalMessages()

	if !phase("warmup", time.Second, func() {
		for k := 0; k < pl.Warm; k++ {
			pub.closedLoop(k)
		}
		pub.await(pl.Warm - 1)
		fx.settle()
	}) {
		return failAll("warmup", pub.err)
	}

	// Closed loop: work completed per second at a stated input size.
	var segs []segment
	var deliveredShare float64
	pub.inPublish = 0
	alloc0, satStart := totalAlloc(), time.Now()
	if !phase("sat", half, func() { segs, deliveredShare = pub.satPhase(pl.satStart(), pl.pacedStart()) }) {
		return failAll("sat", pub.err)
	}
	satWall, satAlloc := time.Since(satStart), totalAlloc()-alloc0
	tps := pick(segs, func(s segment) float64 { return s.tuplesPerSec })
	cpu := pick(segs, func(s segment) float64 { return s.cpuNs })
	m["tuples_per_s"] = calmBest(tps, true) * deliveredShare
	m["cpu_ns_per_tuple"] = median(cpu)
	m["alloc_bytes_per_tuple"] = float64(satAlloc) / float64(pl.Sat*batchSize)
	m["harness.tuples_per_s_median"] = median(tps) * deliveredShare
	m["core.publish_ns_per_tuple"] = float64(pub.inPublish.Nanoseconds()) / float64(pl.Sat*batchSize)
	m["core.publish_block_frac"] = pub.inPublish.Seconds() / satWall.Seconds()
	if cfg.Trace {
		var on, off []float64
		for _, s := range segs {
			if s.traced {
				on = append(on, s.cpuNs)
			} else {
				off = append(off, s.cpuNs)
			}
		}
		if base := median(off); base > 0 {
			m["harness.trace_overhead_pct"] = 100 * (median(on) - base) / base
		}
	}

	// Open loop: sources do not wait. With churn, a second goroutine
	// registers and withdraws queries while the tuples flow.
	var probes probeTimes
	var late []time.Duration
	var drain time.Duration
	if !phase("paced", half, func() {
		stopChurn := make(chan struct{})
		var churn sync.WaitGroup
		if w.Churn {
			churn.Add(1)
			go func() {
				defer churn.Done()
				tick := time.NewTicker(churnEvery)
				defer tick.Stop()
				for i := 0; ; i++ {
					select {
					case <-stopChurn:
						return
					case <-tick.C:
						probes.once(fx, w, i, cfg.Seed)
					}
				}
			}()
		}
		col.pacedFirst = uint64(pl.pacedStart()) * batchSize
		col.pacedTuples = uint64(pl.Paced) * batchSize
		col.timing.Store(true)
		start := time.Now().Add(5 * time.Millisecond)
		late = runPaced(pl.Paced, start, pl.PacedInterval, wallClock, func(i int, due time.Time) {
			pub.publish(pl.pacedStart()+i, due)
		})
		lastPublish := time.Now()
		pub.await(pl.total() - 1)
		drain = time.Since(lastPublish)
		col.timing.Store(false)
		close(stopChurn)
		churn.Wait()
		// The transport's meters cover what the tuples cost, from the
		// first warm-up batch to here: the back-to-back registrations of
		// set-up and of the probe race each other up the tree, so the bytes
		// they cost differ from run to run, and these two counts are meant
		// to repeat exactly.
		fx.settle()
		m["simnet.bytes_total"] = float64(fx.transport.Traffic().TotalBytes() - bytes0)
		m["simnet.messages_total"] = float64(fx.transport.Traffic().TotalMessages() - messages0)
	}) {
		return failAll("paced", pub.err)
	}
	lat, bySlice := col.latencies(uint64(max(sliceLength/pl.PacedInterval, 1)) * batchSize)
	m["core.result_latency_p50_ms"] = slicedPercentile(bySlice, 0.50)
	m["core.result_latency_p90_ms"] = slicedPercentile(bySlice, 0.90)
	m["harness.result_latency_whole_p50_ms"] = percentile(lat, 0.50)
	m["harness.result_latency_whole_p90_ms"] = percentile(lat, 0.90)
	m["harness.result_latency_p99_ms"] = percentile(lat, 0.99)
	m["harness.latency_samples"] = float64(len(lat))
	m["harness.paced_drain_ms"] = float64(drain.Nanoseconds()) / 1e6
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = float64(l.Nanoseconds()) / 1e6
	}
	sort.Float64s(lateMs)
	m["harness.gen_late_p99_ms"] = percentile(lateMs, 0.99)
	m["harness.gen_late_max_ms"] = percentile(lateMs, 1)
	res.Unresolved = m["harness.gen_late_p99_ms"] > 5

	if !w.Churn {
		if !phase("probe", 5*time.Second, func() {
			fx.settle()
			for i := 0; i < min(max(int(2*half/probeEvery), probesMin), probesMax); i++ {
				probes.once(fx, w, i, cfg.Seed)
			}
		}) {
			return failAll("probe", probes.err)
		}
	}
	if probes.err != nil || pub.err != nil || len(probes.submitMs) == 0 {
		return failAll("probe", fmt.Errorf("publish: %v, probe: %v, probes done: %d", pub.err, probes.err, len(probes.submitMs)))
	}
	m["core.submit_query_ms_p50"] = median(probes.submitMs)
	m["core.remove_query_ms_p50"] = median(probes.removeMs)

	// Counters are read once, here, with the stream quiescent: the
	// registry's collector calls into entities and must not race ingest.
	var counterErr error
	if !phase("counters", 5*time.Second, func() {
		fx.settle()
		counterErr = readCounters(fx, m, float64(totalTuples))
	}) || counterErr != nil {
		return failAll("counters", counterErr)
	}
	m["peak_rss_mb"] = peakRSSMB()

	res.Verdict = col.verify(exp)
	v := res.Verdict
	m["harness.results_expected"] = float64(v.Expected)
	m["harness.results_delivered"] = float64(v.Delivered)
	m["core.results_per_tuple"] = float64(v.Delivered) / float64(totalTuples)
	res.Correct = v.correct()
	res.Failed = min(v.failed(), res.Attempted)

	if cfg.Trace {
		if !phase("replay", 20*time.Second, func() { layerReplay(cfg, fx, gen, specs, rec, m, float64(totalTuples)) }) {
			return failAll("replay", nil)
		}
		traceMetrics(rec, m)
		if err := rec.write(filepath.Join(cfg.OutDir, w.Name+".trace.json"), w.Name, envStamp(cfg, pl)); err != nil {
			res.Notes = append(res.Notes, "trace file: "+err.Error())
		}
	}
	return res
}

// readCounters fills the count metrics from the federation's metric
// registry and the engine drop totals.
func readCounters(fx *fixture, m map[string]float64, published float64) error {
	var buf bytes.Buffer
	if err := fx.fed.MetricsRegistry().WritePrometheus(&buf); err != nil {
		return err
	}
	fams, err := metrics.ParsePrometheus(&buf)
	if err != nil {
		return err
	}
	sum := func(name string) (total float64, n int) {
		for _, f := range fams {
			if f.Name == name {
				for _, s := range f.Samples {
					total += s.Value
					n++
				}
			}
		}
		return total, n
	}
	relayed, _ := sum("sspd_relay_relayed_total")
	suppressed, _ := sum("sspd_relay_suppressed_total")
	delivered, _ := sum("sspd_relay_delivered_total")
	sendErrs, _ := sum("sspd_relay_send_errors_total")
	m["dissemination.relayed_tuples"] = relayed
	m["dissemination.suppressed_tuples"] = suppressed
	m["dissemination.delivered_tuples"] = delivered
	m["dissemination.send_errors"] = sendErrs
	m["dissemination.hops_per_tuple"] = relayed / published
	if relayed+suppressed > 0 {
		m["dissemination.suppressed_frac"] = suppressed / (relayed + suppressed)
	}
	// Per-query mean processing time p_k and mean delay d_k (wait +
	// service), averaged over the queries that measured any.
	if p, n := sum("sspd_query_processing_seconds"); n > 0 {
		m["engine.proc_us_mean"] = p / float64(n) * 1e6
	}
	if d, n := sum("sspd_query_delay_seconds"); n > 0 {
		m["engine.delay_ms_mean"] = d / float64(n) * 1e3
	}
	// Engine-lifetime drop totals are only exposed through the cluster
	// stats digest. Enabling the stats plane now, tick-less, after every
	// timed phase, gets them without having run a plane during the
	// measurement.
	if err := fx.fed.EnableStatsPlane(0); err != nil {
		return err
	}
	for i := 0; i < 3; i++ { // one tick per level of the digest tree
		fx.fed.StatsTick()
		fx.settle()
	}
	rows, _, _ := fx.fed.ClusterStats()
	dropped := 0.0
	for _, row := range rows {
		dropped += float64(row.Dropped)
	}
	m["engine.dropped_tuples"] = dropped
	return nil
}
