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

// recoveryBudgetMs bounds the whole crash-to-committed interval for the
// full 64-query workload: locate quorum-acked checkpoints, re-place,
// restore, replay the outage suffix, commit. A regression that fetches
// state sequentially per query, or replays from the beginning of the
// stream, blows this budget.
const recoveryBudgetMs = 2000

// recoveryReplayBudget bounds replay amplification: the rings are
// replayed at most once per surviving recovery target, so with two
// survivors the fetched-tuple count may not exceed twice the tuples
// published after the last checkpoint. A regression that replays the
// full history, or replays per query instead of per target, blows it.
const recoveryReplayBudget = 2.0

// recoveryReport is the schema of BENCH_recovery.json: exactly-once
// accounting for a 64-query workload hard-killed mid-stream and
// recovered from quorum-acked checkpoints.
type recoveryReport struct {
	Entities int   `json:"entities"`
	Queries  int   `json:"queries"`
	Window   int   `json:"window"`
	Seed     int64 `json:"seed"`

	PublishedPre    int `json:"published_pre_checkpoint"`
	PublishedOutage int `json:"published_outage"`
	PublishedPost   int `json:"published_post_recovery"`
	Published       int `json:"published"`
	Delivered       int `json:"delivered"`
	Duplicated      int `json:"duplicated"`
	Lost            int `json:"lost"`

	Restored         int     `json:"restored"`
	Stateless        int     `json:"stateless"`
	FailedRecoveries int     `json:"failed_recoveries"`
	RecoveryMs       float64 `json:"recovery_ms"`
	RecoveryBudgetMs float64 `json:"recovery_budget_ms"`
	ReplayFetched    int64   `json:"replay_fetched"`
	ReplayRatio      float64 `json:"replay_ratio"`
	ReplayBudget     float64 `json:"replay_budget"`

	CheckpointWrites int   `json:"checkpoint_writes"`
	CheckpointBytes  int64 `json:"checkpoint_bytes"`
	FailErrors       int64 `json:"entity_fail_errors"`

	Pass bool `json:"pass"`
}

// runRecoveryBench measures checkpoint-backed crash recovery end to
// end: 64 windowed aggregates on one entity of a three-entity
// federation, a durable checkpoint sweep, a hard kill (no goodbye, no
// handoff), an outage window with tuples still being published, then
// expulsion and recovery. It fails (non-zero exit) if any committed
// result is lost or duplicated, if any query comes back stateless, if
// the crash-to-committed interval exceeds the budget, or if replay
// amplification exceeds its budget.
func runRecoveryBench(path string) error {
	const (
		window   = 32
		nQueries = 64
		seed     = 17
		outage   = 100
	)
	net := simnet.NewSim(nil)
	defer net.Close()
	fed, err := core.New(net, workload.Catalog(100, 20), core.Options{
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
		if err := fed.AddEntity(id, simnet.Point{X: float64(10 + i*10)}, 4,
			func(name string, c *stream.Catalog) engine.Processor {
				return engine.NewMini(name, c)
			}); err != nil {
			return err
		}
	}
	if err := fed.Start(); err != nil {
		return err
	}

	// The full query load lands on the victim: recovery must bring all
	// 64 back at once.
	var mu sync.Mutex
	counts := make(map[string]map[uint64]int, nQueries)
	for i := 0; i < nQueries; i++ {
		id := fmt.Sprintf("q%02d", i)
		counts[id] = map[uint64]int{}
		c := counts[id]
		spec := engine.QuerySpec{
			ID:     id,
			Source: "quotes",
			Agg: &engine.AggSpec{Fn: operator.AggCount, ValueField: "price",
				Window: stream.CountWindow(window)},
			Load: 5,
		}
		if err := fed.SubmitQueryTo(spec, "e01", func(t stream.Tuple) {
			mu.Lock()
			c[t.Seq]++
			mu.Unlock()
		}); err != nil {
			return err
		}
	}
	if err := fed.EnableCheckpoints(0, 2); err != nil {
		return err
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(seed, 100, 1.2)
	var published stream.Batch
	publish := func(k int) error {
		b := tick.Batch(k)
		published = append(published, b...)
		return fed.Publish("quotes", b)
	}

	rep := recoveryReport{
		Entities:         len(entities),
		Queries:          nQueries,
		Window:           window,
		Seed:             seed,
		RecoveryBudgetMs: recoveryBudgetMs,
		ReplayBudget:     recoveryReplayBudget,
	}

	// Warm every window past one full turn, then take a durable cut.
	rep.PublishedPre = 200
	if err := publish(rep.PublishedPre); err != nil {
		return err
	}
	fed.Settle(2 * time.Second)
	fed.CheckpointTick()
	deadline := time.Now().Add(5 * time.Second)
	for fed.Checkpoints().QuorumAcked < nQueries && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	fed.Settle(2 * time.Second)
	if acked := fed.Checkpoints().QuorumAcked; acked < nQueries {
		return fmt.Errorf("recovery bench: only %d/%d checkpoints quorum-acked", acked, nQueries)
	}

	// Hard crash, then keep publishing into the outage: these tuples
	// reach no query until the rings replay them.
	if err := fed.KillEntity("e01"); err != nil {
		return err
	}
	rep.PublishedOutage = outage
	if err := publish(outage); err != nil {
		return err
	}

	crash := time.Now()
	moved, err := fed.FailEntity("e01")
	if err != nil {
		return fmt.Errorf("recovery bench: expel: %w", err)
	}
	fed.Settle(2 * time.Second)
	rep.RecoveryMs = float64(time.Since(crash).Microseconds()) / 1000
	if moved != nQueries {
		return fmt.Errorf("recovery bench: recovered %d/%d queries", moved, nQueries)
	}

	// Post-recovery traffic flows through the repaired tree.
	rep.PublishedPost = 100
	if err := publish(rep.PublishedPost); err != nil {
		return err
	}
	fed.Settle(2 * time.Second)

	rep.Published = len(published)
	mu.Lock()
	for _, c := range counts {
		lost, dup, delivered := 0, 0, 0
		for _, t := range published {
			switch c[t.Seq] {
			case 0:
				lost++
			case 1:
				delivered++
			default:
				delivered++
				dup += c[t.Seq] - 1
			}
		}
		rep.Lost += lost
		rep.Duplicated += dup
		rep.Delivered += delivered
	}
	mu.Unlock()
	// Delivered/Lost/Duplicated are summed across all queries; Published
	// stays per-query so the headline reads "tuples × queries".
	rep.Published *= nQueries

	for _, r := range fed.Recoveries() {
		switch r.Outcome {
		case "restored":
			rep.Restored++
		case "stateless":
			rep.Stateless++
		default:
			rep.FailedRecoveries++
		}
	}
	rep.ReplayFetched = fed.RecoveryReplayFetched()
	rep.ReplayRatio = float64(rep.ReplayFetched) / float64(rep.PublishedOutage)
	ck := fed.Checkpoints()
	rep.CheckpointWrites = int(ck.Writes)
	rep.CheckpointBytes = ck.WireBytes
	rep.FailErrors = fed.EntityFailErrors()

	rep.Pass = rep.Lost == 0 && rep.Duplicated == 0 &&
		rep.Restored == nQueries && rep.Stateless == 0 && rep.FailedRecoveries == 0 &&
		rep.RecoveryMs < recoveryBudgetMs &&
		rep.ReplayRatio <= recoveryReplayBudget &&
		rep.FailErrors == 0

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("recovery bench: %d queries restored in %.1fms, %d/%d delivered "+
		"(%d lost, %d dup), replay %.2fx outage -> %s\n",
		rep.Restored, rep.RecoveryMs, rep.Delivered, rep.Published,
		rep.Lost, rep.Duplicated, rep.ReplayRatio, path)
	if !rep.Pass {
		return fmt.Errorf("recovery bench FAILED: lost=%d dup=%d restored=%d/%d "+
			"stateless=%d failed=%d recovery=%.1fms (budget %.0fms) replay=%.2fx (budget %.1fx) fail_errors=%d",
			rep.Lost, rep.Duplicated, rep.Restored, nQueries, rep.Stateless,
			rep.FailedRecoveries, rep.RecoveryMs, float64(recoveryBudgetMs),
			rep.ReplayRatio, recoveryReplayBudget, rep.FailErrors)
	}
	return nil
}
