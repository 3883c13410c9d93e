package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sspd/internal/core"
	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// chaosSpec is the parsed -chaos flag: a comma-separated list of
// fault rules, e.g. "drop=0.05,dup=0.02,partition=500ms,crash=1,seed=7".
type chaosSpec struct {
	// Drop / Dup are per-message probabilities applied to every link.
	Drop float64 `json:"drop"`
	Dup  float64 `json:"dup"`
	// Jitter delays each delivery by a uniform random amount up to this.
	Jitter time.Duration `json:"jitter_ns"`
	// Partition cuts the source's link to entity e00 for this long.
	Partition time.Duration `json:"partition_ns"`
	// Crash blackholes this many entities (from the highest ID down),
	// exercising detection, tree repair, and query re-placement.
	Crash int `json:"crash"`
	// Seed makes every probabilistic draw reproducible.
	Seed int64 `json:"seed"`
}

func parseChaosSpec(s string) (chaosSpec, error) {
	spec := chaosSpec{Drop: 0.05, Crash: 1, Seed: 1}
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "drop":
			spec.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			spec.Dup, err = strconv.ParseFloat(v, 64)
		case "jitter":
			spec.Jitter, err = time.ParseDuration(v)
		case "partition":
			spec.Partition, err = time.ParseDuration(v)
		case "crash":
			spec.Crash, err = strconv.Atoi(v)
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return spec, fmt.Errorf("chaos: unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("chaos: bad value for %s: %v", k, err)
		}
	}
	return spec, nil
}

// chaosPhase is one measurement window's delivery accounting: Expected
// is published×queries; Delivered counts unique (query, tuple) pairs;
// Duplicated counts extra deliveries of already-seen pairs; Lost is
// Expected − Delivered.
type chaosPhase struct {
	Published  int `json:"published"`
	Expected   int `json:"expected"`
	Delivered  int `json:"delivered"`
	Duplicated int `json:"duplicated"`
	Lost       int `json:"lost"`
}

// chaosReport is the schema of BENCH_robustness.json.
type chaosReport struct {
	Spec     chaosSpec `json:"spec"`
	Entities int       `json:"entities"`
	Queries  int       `json:"queries"`

	// Baseline: faults disabled; expected lossless.
	Baseline chaosPhase `json:"baseline"`
	// Chaos: faults active, entities crashing; losses are the faults'.
	Chaos chaosPhase `json:"chaos"`
	// Recovery: faults lifted, tree repaired; Lost must be 0 — the
	// self-healing acceptance criterion.
	Recovery chaosPhase `json:"recovery"`

	// DetectMs is blackhole -> crashed entities expelled and their
	// queries re-placed; ConvergeMs additionally waits for the interest
	// soft-state to re-converge (every query sees every probe tuple).
	DetectMs   float64 `json:"detect_ms"`
	ConvergeMs float64 `json:"converge_ms"`

	FaultsInjected map[string]int64 `json:"faults_injected"`
	ControlRetries int64            `json:"control_retries"`
	ControlGiveUps int64            `json:"control_giveups"`
}

// chaosCounts tracks per-query delivery multiplicity by tuple sequence.
type chaosCounts struct {
	mu   sync.Mutex
	seen []map[uint64]int
}

func (c *chaosCounts) record(q int, seq uint64) {
	c.mu.Lock()
	c.seen[q][seq]++
	c.mu.Unlock()
}

// phase tallies a window given the seqs published during it.
func (c *chaosCounts) phase(published []uint64) chaosPhase {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := chaosPhase{Published: len(published), Expected: len(published) * len(c.seen)}
	for _, per := range c.seen {
		for _, seq := range published {
			switch n := per[seq]; {
			case n >= 1:
				p.Delivered++
				p.Duplicated += n - 1
			}
		}
	}
	p.Lost = p.Expected - p.Delivered
	return p
}

func runChaosBench(specStr, path string) error {
	spec, err := parseChaosSpec(specStr)
	if err != nil {
		return err
	}
	const nEntities = 6
	if spec.Crash < 0 || spec.Crash >= nEntities {
		return fmt.Errorf("chaos: crash must be in [0, %d)", nEntities)
	}

	plan := simnet.NewFaultPlan(simnet.NewSim(nil), spec.Seed)
	defer plan.Close()
	catalog := workload.Catalog(100, 20)
	fed, err := core.New(plan, catalog, core.Options{
		Strategy:        dissemination.Balanced,
		Fanout:          2,
		ReliableControl: true,
		InterestRefresh: 25 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", simnet.Point{},
		core.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		return err
	}
	mini := func(name string, c *stream.Catalog) engine.Processor {
		return engine.NewMini(name, c)
	}
	for i := 0; i < nEntities; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i),
			simnet.Point{X: float64(10 + i*10)}, 2, mini); err != nil {
			return err
		}
	}
	if err := fed.Start(); err != nil {
		return err
	}
	counts := &chaosCounts{seen: make([]map[uint64]int, nEntities)}
	for q := 0; q < nEntities; q++ {
		counts.seen[q] = make(map[uint64]int)
		qi := q
		spec := engine.QuerySpec{
			ID:     fmt.Sprintf("q%d", q),
			Source: "quotes",
			Filters: []engine.FilterSpec{
				{Field: "price", Lo: 0, Hi: 1000, Cost: 1},
			},
			Load: 5,
		}
		if err := fed.SubmitQueryTo(spec, fmt.Sprintf("e%02d", qi),
			func(t stream.Tuple) { counts.record(qi, t.Seq) }); err != nil {
			return err
		}
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(spec.Seed, 100, 1.2)
	publish := func(n, batch int) ([]uint64, error) {
		var seqs []uint64
		for sent := 0; sent < n; sent += batch {
			b := tick.Batch(batch)
			for _, t := range b {
				seqs = append(seqs, t.Seq)
			}
			if err := fed.Publish("quotes", b); err != nil {
				return seqs, err
			}
		}
		fed.Settle(5 * time.Second)
		return seqs, nil
	}

	rep := chaosReport{Spec: spec, Entities: nEntities, Queries: nEntities}

	// Phase 1: baseline, plan transparent.
	plan.SetEnabled(false)
	base, err := publish(500, 50)
	if err != nil {
		return err
	}
	rep.Baseline = counts.phase(base)

	// Phase 2: chaos. Link faults everywhere, a transient partition of
	// the source's e00 link, and crash the highest-numbered entities.
	if err := fed.EnableFailureDetection(20*time.Millisecond, 5); err != nil {
		return err
	}
	plan.SetDefaultFaults(simnet.LinkFaults{Drop: spec.Drop, Duplicate: spec.Dup, Jitter: spec.Jitter})
	if spec.Partition > 0 {
		plan.Partition("src:quotes", "e00:quotes")
		time.AfterFunc(spec.Partition, func() { plan.Heal("src:quotes", "e00:quotes") })
	}
	plan.SetEnabled(true)
	crashed := make([]string, 0, spec.Crash)
	crashStart := time.Now()
	for i := nEntities - spec.Crash; i < nEntities; i++ {
		id := fmt.Sprintf("e%02d", i)
		crashed = append(crashed, id)
		// Endpoint naming convention: "<id>/hb" heartbeat, "<id>:<stream>"
		// relay, "<id>/p<k>" processors.
		plan.Blackhole(simnet.NodeID(id+"/hb"), simnet.NodeID(id+":quotes"),
			simnet.NodeID(id+"/p0"), simnet.NodeID(id+"/p1"))
	}
	chaosSeqs, err := publish(500, 50)
	if err != nil {
		return err
	}
	// Wait for the self-healing pipeline: every crashed entity expelled
	// and its query re-placed onto a survivor.
	deadline := time.Now().Add(15 * time.Second)
	for {
		healed := len(fed.EntityIDs()) == nEntities-spec.Crash
		for i := nEntities - spec.Crash; healed && i < nEntities; i++ {
			host, ok := fed.QueryEntity(fmt.Sprintf("q%d", i))
			if !ok || contains(crashed, host) {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: crashed entities not expelled within deadline (entities=%v)", fed.EntityIDs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep.DetectMs = float64(time.Since(crashStart).Microseconds()) / 1000
	rep.Chaos = counts.phase(chaosSeqs)

	// Phase 3: faults lift; wait for interest convergence, then the
	// recovery window must be lossless.
	plan.SetEnabled(false)
	if spec.Partition > 0 {
		plan.Heal("src:quotes", "e00:quotes")
	}
	fed.Settle(2 * time.Second)
	deadline = time.Now().Add(15 * time.Second)
	for {
		probe, err := publish(1, 1)
		if err != nil {
			return err
		}
		if p := counts.phase(probe); p.Lost == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: interest filters did not re-converge")
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.ConvergeMs = float64(time.Since(crashStart).Microseconds()) / 1000
	rec, err := publish(500, 50)
	if err != nil {
		return err
	}
	rep.Recovery = counts.phase(rec)

	rep.FaultsInjected = plan.InjectedTotals()
	rep.ControlRetries, _ = fed.ControlStats()
	rep.ControlGiveUps = fed.ControlGiveUps()

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("chaos bench (drop=%.2f dup=%.2f crash=%d seed=%d):\n",
		spec.Drop, spec.Dup, spec.Crash, spec.Seed)
	fmt.Printf("  baseline:  %d/%d delivered, %d dup, %d lost\n",
		rep.Baseline.Delivered, rep.Baseline.Expected, rep.Baseline.Duplicated, rep.Baseline.Lost)
	fmt.Printf("  chaos:     %d/%d delivered, %d dup, %d lost\n",
		rep.Chaos.Delivered, rep.Chaos.Expected, rep.Chaos.Duplicated, rep.Chaos.Lost)
	fmt.Printf("  recovery:  %d/%d delivered, %d dup, %d lost (detect %.0fms, converge %.0fms)\n",
		rep.Recovery.Delivered, rep.Recovery.Expected, rep.Recovery.Duplicated, rep.Recovery.Lost,
		rep.DetectMs, rep.ConvergeMs)
	fmt.Printf("  faults injected: %v; control retries %d, give-ups %d\n",
		rep.FaultsInjected, rep.ControlRetries, rep.ControlGiveUps)
	fmt.Printf("  wrote %s\n", path)
	if rep.Recovery.Lost != 0 {
		return fmt.Errorf("chaos: %d tuples silently lost AFTER recovery", rep.Recovery.Lost)
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
