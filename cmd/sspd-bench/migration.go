package main

import (
	"fmt"
	"sync"
	"time"

	"sspd/internal/core"
	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/operator"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// migrationPauseBudgetMs bounds the per-hop handoff pause (pause →
// drain → snapshot → restore → replay) on the simulated transport. A
// regression that starts copying windows tuple-by-tuple over the
// network, or replaying unbounded buffers, blows this budget.
const migrationPauseBudgetMs = 250

// migrationReport is the schema of BENCH_migration.json: exactly-once
// accounting for a stateful query live-migrated around the cluster
// mid-stream, plus the handoff pause distribution.
type migrationReport struct {
	Entities int   `json:"entities"`
	Window   int   `json:"window"`
	Hops     int   `json:"hops"`
	Seed     int64 `json:"seed"`

	Published  int `json:"published"`
	Delivered  int `json:"delivered"`
	Duplicated int `json:"duplicated"`
	Lost       int `json:"lost"`

	Commits         int     `json:"commits"`
	Rollbacks       int     `json:"rollbacks"`
	StateBytesTotal int     `json:"state_bytes_total"`
	ReplayedTotal   int     `json:"replayed_total"`
	PauseMaxMs      float64 `json:"pause_max_ms"`
	PauseMeanMs     float64 `json:"pause_mean_ms"`
	PauseBudgetMs   float64 `json:"pause_budget_ms"`

	Pass bool `json:"pass"`
}

// runMigrationBench measures the live-migration protocol end to end: a
// windowed aggregate hops around a three-entity federation while quote
// batches are in flight on a jittery, reordering transport. It fails
// (non-zero exit) if any tuple is lost or duplicated, or if the worst
// handoff pause exceeds the budget.
func runMigrationBench(path string) error {
	const (
		window   = 64
		hopCount = 6
		seed     = 11
	)
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), seed)
	defer plan.Close()
	fed, err := core.New(plan, workload.Catalog(100, 20), core.Options{
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
	entities := []string{"e00", "e01", "e02"}
	for i, id := range entities {
		if err := fed.AddEntity(id, simnet.Point{X: float64(10 + i*10)}, 2,
			func(name string, c *stream.Catalog) engine.Processor {
				return engine.NewMini(name, c)
			}); err != nil {
			return err
		}
	}
	if err := fed.Start(); err != nil {
		return err
	}

	var mu sync.Mutex
	counts := map[uint64]int{}
	spec := engine.QuerySpec{
		ID:     "agg",
		Source: "quotes",
		Agg: &engine.AggSpec{Fn: operator.AggCount, ValueField: "price",
			Window: stream.CountWindow(window)},
		Load: 5,
	}
	if err := fed.SubmitQueryTo(spec, "e00", func(t stream.Tuple) {
		mu.Lock()
		counts[t.Seq]++
		mu.Unlock()
	}); err != nil {
		return err
	}
	fed.Settle(2 * time.Second)

	plan.SetDefaultFaults(simnet.LinkFaults{
		Reorder:      0.25,
		ReorderDelay: 2 * time.Millisecond,
		Jitter:       time.Millisecond,
	})
	plan.SetEnabled(true)

	tick := workload.NewTicker(seed, 100, 1.2)
	var published stream.Batch
	publish := func(k int) error {
		b := tick.Batch(k)
		published = append(published, b...)
		return fed.Publish("quotes", b)
	}
	if err := publish(200); err != nil {
		return err
	}
	fed.Settle(2 * time.Second)

	// Hop around the ring with tuples in flight at every handoff.
	for hop := 0; hop < hopCount; hop++ {
		if err := publish(100); err != nil {
			return err
		}
		to := entities[(hop+1)%len(entities)]
		if err := fed.MigrateQuery("agg", to); err != nil {
			return fmt.Errorf("migration bench: hop %d -> %s: %w", hop, to, err)
		}
	}
	if err := publish(100); err != nil {
		return err
	}
	fed.Settle(2 * time.Second)
	plan.SetEnabled(false)
	fed.Settle(2 * time.Second)

	rep := migrationReport{
		Entities:      len(entities),
		Window:        window,
		Hops:          hopCount,
		Seed:          seed,
		Published:     len(published),
		PauseBudgetMs: migrationPauseBudgetMs,
	}
	mu.Lock()
	for _, t := range published {
		switch counts[t.Seq] {
		case 0:
		case 1:
			rep.Delivered++
		default:
			rep.Delivered++
			rep.Duplicated += counts[t.Seq] - 1
		}
	}
	mu.Unlock()
	rep.Lost = rep.Published - rep.Delivered

	var pauseSum float64
	for _, r := range fed.Migrations() {
		switch r.Outcome {
		case "commit":
			rep.Commits++
			rep.StateBytesTotal += r.StateBytes
			rep.ReplayedTotal += r.Replayed
			pauseSum += r.PauseMs
			if r.PauseMs > rep.PauseMaxMs {
				rep.PauseMaxMs = r.PauseMs
			}
		default:
			rep.Rollbacks++
		}
	}
	if rep.Commits > 0 {
		rep.PauseMeanMs = pauseSum / float64(rep.Commits)
	}
	rep.Pass = rep.Lost == 0 && rep.Duplicated == 0 && rep.Rollbacks == 0 &&
		rep.Commits == hopCount && rep.PauseMaxMs <= migrationPauseBudgetMs

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("migration bench: %d hops, %d/%d delivered (%d lost, %d dup), "+
		"pause max %.2fms mean %.2fms, state %dB, replayed %d -> %s\n",
		rep.Commits, rep.Delivered, rep.Published, rep.Lost, rep.Duplicated,
		rep.PauseMaxMs, rep.PauseMeanMs, rep.StateBytesTotal, rep.ReplayedTotal, path)
	if !rep.Pass {
		return fmt.Errorf("migration bench FAILED: lost=%d dup=%d rollbacks=%d pause_max=%.2fms (budget %.0fms)",
			rep.Lost, rep.Duplicated, rep.Rollbacks, rep.PauseMaxMs, float64(migrationPauseBudgetMs))
	}
	return nil
}
