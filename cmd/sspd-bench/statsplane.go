package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sspd/internal/coordinator"
	"sspd/internal/core"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
)

// statsplaneReport is appended into BENCH_observability.json: the cost
// of the cluster stats plane (DESIGN.md §9). Digest merging and journal
// appends happen off the tuple path; the end-to-end on/off comparison
// bounds what the plane's background folding costs flowing tuples.
type statsplaneReport struct {
	// NsPerDigestMerge is one MergeRows of a full 32-entity digest into
	// an equally sized table — the per-push cost at an interior node.
	NsPerDigestMerge float64 `json:"ns_per_digest_merge"`
	// NsPerJournalAppend is one structured event append into the
	// bounded flight recorder.
	NsPerJournalAppend float64 `json:"ns_per_journal_append"`
	// NsPerTuplePlaneOff / On are end-to-end publish->result costs per
	// tuple with the stats plane disabled and enabled (50ms period).
	NsPerTuplePlaneOff float64 `json:"ns_per_tuple_plane_off"`
	NsPerTuplePlaneOn  float64 `json:"ns_per_tuple_plane_on"`
	// PlaneOverheadPct is the on/off delta; the acceptance bar is <= 1
	// plus the run's own measured noise floor.
	PlaneOverheadPct float64 `json:"plane_overhead_pct"`
	// PlaneNoisePct is the within-side spread of the rounds (median over
	// best, summed across the off and on sides, as a percentage): what
	// this machine's scheduler jitter alone does to the measurement. The
	// gate widens by it, so a quiet multicore box keeps the tight 1% bar
	// while a contended single-core container doesn't fail on noise it
	// cannot resolve.
	PlaneNoisePct float64 `json:"plane_noise_pct"`
}

// maxPlaneOverheadPct is the regression gate enforced by bench-statsplane.
const maxPlaneOverheadPct = 1.0

func runStatsplaneBench(path string) error {
	var rep statsplaneReport

	// Digest merge: a realistic 32-entity table refreshed by an equally
	// wide incoming digest, every row carrying sparklines, per-query
	// loads, and per-stream meters.
	const nRows = 32
	mkRows := func(seqBase uint64) map[string]coordinator.EntityStats {
		rows := make(map[string]coordinator.EntityStats, nRows)
		for i := 0; i < nRows; i++ {
			id := fmt.Sprintf("e%02d", i)
			spark := make([]float64, coordinator.SparkLen)
			for j := range spark {
				spark[j] = float64(j) / 32
			}
			rows[id] = coordinator.EntityStats{
				Entity: id, Seq: seqBase + uint64(i), UnixNano: int64(seqBase),
				Load: 5, Queries: 3, PRMax: 0.4, PRSpark: spark,
				QueryLoads: map[string]float64{"q1": 2, "q2": 1.5, "q3": 1.5},
				Streams: map[string]coordinator.StreamStats{
					"quotes": {Bytes: 1 << 20, Messages: 4096, BytesPerSec: 64e3},
				},
			}
		}
		return rows
	}
	dst := mkRows(1)
	src := mkRows(2)
	const mergeIters = 100_000
	start := time.Now()
	for i := 0; i < mergeIters; i++ {
		coordinator.MergeRows(dst, src)
	}
	rep.NsPerDigestMerge = float64(time.Since(start).Nanoseconds()) / float64(mergeIters)

	// Journal append at the default flight-recorder capacity, steady
	// state (ring full, evicting).
	j := obslog.NewJournal(obslog.DefaultJournalCapacity)
	fields := map[string]string{"stream": "quotes", "rewires": "2"}
	const appendIters = 2_000_000
	start = time.Now()
	for i := 0; i < appendIters; i++ {
		j.Append(obslog.Event{Level: "INFO", Kind: "tree.repair", Node: "e01",
			Msg: "bench", Fields: fields})
	}
	rep.NsPerJournalAppend = float64(time.Since(start).Nanoseconds()) / float64(appendIters)

	// End-to-end tuple path, plane off vs plane on (50ms digest period).
	cost, err := planeCost(
		func() (*core.Federation, *simnet.SimNet, error) {
			return benchFederation(quietOptions(3), 4, miniFactory, nil)
		},
		func(fed *core.Federation) error { return fed.EnableStatsPlane(50 * time.Millisecond) })
	if err != nil {
		return err
	}
	rep.NsPerTuplePlaneOff, rep.NsPerTuplePlaneOn = cost.Off, cost.On
	rep.PlaneNoisePct, rep.PlaneOverheadPct = cost.NoisePct, cost.OverheadPct

	if err := appendReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("statsplane bench: merge=%.0fns append=%.0fns tuple off=%.0fns on=%.0fns (%+.2f%%, noise %.2f%%)\n",
		rep.NsPerDigestMerge, rep.NsPerJournalAppend,
		rep.NsPerTuplePlaneOff, rep.NsPerTuplePlaneOn, rep.PlaneOverheadPct, rep.PlaneNoisePct)
	fmt.Printf("  appended to %s\n", path)
	if bar := maxPlaneOverheadPct + rep.PlaneNoisePct; rep.PlaneOverheadPct > bar {
		return fmt.Errorf("stats plane adds %.2f%% to the tuple path (bar: %.1f%% + %.2f%% measured noise)",
			rep.PlaneOverheadPct, maxPlaneOverheadPct, rep.PlaneNoisePct)
	}
	return nil
}

// appendReport read-modify-writes rep's fields into the JSON object at
// path, preserving whatever the other observability benches already
// wrote.
func appendReport(path string, rep any) error {
	merged := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			return fmt.Errorf("%s exists but is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	var fields map[string]any
	if err := json.Unmarshal(repJSON, &fields); err != nil {
		return err
	}
	for k, v := range fields {
		merged[k] = v
	}
	return writeReport(path, merged)
}

// writeReport (re)writes path as rep's indented JSON.
func writeReport(path string, rep any) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
