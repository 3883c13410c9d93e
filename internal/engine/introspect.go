// Engine introspection (DESIGN.md §14): per-shard telemetry snapshots
// for the shard-per-core engine. Every counter here is an atomic updated
// at batch granularity — once per ring enqueue or once per (query,
// batch) feed — so the hot loop stays 0-alloc and the instrumentation
// rides inside the existing <1%-overhead discipline. Snapshots are
// read-side: EngineStats walks the atomics without stopping shards, so
// a snapshot is a consistent-enough racy view, never a barrier.
package engine

import (
	"math/bits"
	"sync/atomic"
)

// OccBuckets is the fixed power-of-two resolution of the ring-occupancy
// histogram: bucket 0 counts enqueues that found the ring empty, bucket
// i counts occupancies in [2^(i-1), 2^i). 16 buckets cover any ring up
// to 32768 slots.
const OccBuckets = 16

// shardStats is one shard's telemetry: atomics bumped by producers
// (occupancy, offered, dropped) and by the shard goroutine (batches,
// tuples, kernel split, control latency). Padding is unnecessary — every
// update is amortized over a whole batch.
type shardStats struct {
	queries      atomic.Int64
	offered      atomic.Int64 // tuples attempted onto the ring
	dropped      atomic.Int64 // tuples refused by a full ring
	highWater    atomic.Int64 // max occupancy observed at enqueue
	occ          [OccBuckets]atomic.Int64
	batches      atomic.Int64 // (query, batch) feeds executed
	tuples       atomic.Int64
	kernelTuples atomic.Int64 // tuples through the columnar batch run
	interpTuples atomic.Int64 // tuples through per-tuple Feed (joins)
	kernelIn     atomic.Int64 // rows entering the filter kernels
	kernelOut    atomic.Int64 // rows surviving into the stateful tail
	ctlItems     atomic.Int64
	ctlWaitNs    atomic.Int64 // cumulative control-item ring wait
}

// observeOcc records one enqueue-time occupancy sample: a histogram
// bucket bump plus a high-water CAS (which loops only while the record
// is actually being beaten).
func (s *shardStats) observeOcc(occ uint64) {
	b := bits.Len64(occ)
	if b >= OccBuckets {
		b = OccBuckets - 1
	}
	s.occ[b].Add(1)
	o := int64(occ)
	for {
		hw := s.highWater.Load()
		if o <= hw || s.highWater.CompareAndSwap(hw, o) {
			return
		}
	}
}

// ShardStat is one shard's telemetry snapshot, JSON-shaped for the
// cluster digest and GET /cluster/engine.
type ShardStat struct {
	Shard int `json:"shard"`
	// Engine names the owning engine once stats are merged across
	// processors or entities; empty inside a single engine's snapshot.
	Engine  string `json:"engine,omitempty"`
	Queries int64  `json:"queries"`
	RingCap int64  `json:"ring_cap"`
	// Occupancy is the instantaneous ring depth at snapshot time;
	// HighWater the worst occupancy any enqueue has observed; OccHist the
	// power-of-two occupancy histogram sampled per enqueue.
	Occupancy int64   `json:"occupancy"`
	HighWater int64   `json:"high_water"`
	OccHist   []int64 `json:"occ_hist,omitempty"`
	Offered   int64   `json:"offered"`
	Dropped   int64   `json:"dropped"`
	Batches   int64   `json:"batches"`
	Tuples    int64   `json:"tuples"`
	// KernelTuples / InterpTuples split processed tuples between the
	// vectorized kernel path and the per-tuple interpreted path (joins);
	// KernelIn / KernelOut are the filter pipeline's row counts, whose
	// ratio is the observed kernel selectivity.
	KernelTuples int64 `json:"kernel_tuples"`
	InterpTuples int64 `json:"interp_tuples"`
	KernelIn     int64 `json:"kernel_in"`
	KernelOut    int64 `json:"kernel_out"`
	CtlItems     int64 `json:"ctl_items"`
	CtlWaitNs    int64 `json:"ctl_wait_ns"`
}

// Selectivity returns the observed kernel selectivity: the fraction of
// rows entering the filter pipeline that survive into the stateful tail
// (0 when no kernel batch has run).
func (s ShardStat) Selectivity() float64 {
	if s.KernelIn == 0 {
		return 0
	}
	return float64(s.KernelOut) / float64(s.KernelIn)
}

// KernelShare returns the fraction of processed tuples that took the
// vectorized kernel path rather than per-tuple interpretation.
func (s ShardStat) KernelShare() float64 {
	if s.Tuples == 0 {
		return 0
	}
	return float64(s.KernelTuples) / float64(s.Tuples)
}

// EngineStats is one engine's introspection snapshot — or, after Merge,
// the union across an entity's processors (and, in the cluster view,
// across entities).
type EngineStats struct {
	Engine  string `json:"engine,omitempty"`
	Queries int    `json:"queries"`
	// Dropped is the engine-lifetime dropped-tuple total. Unlike the
	// per-query counters it survives unregistration, so drops from
	// since-expired queries stay visible.
	Dropped int64       `json:"dropped"`
	Shards  []ShardStat `json:"shards,omitempty"`
}

// Merge folds another engine's snapshot into s: shard rows append
// (tagged with their engine of origin) and the totals add.
func (s *EngineStats) Merge(o EngineStats) {
	s.Queries += o.Queries
	s.Dropped += o.Dropped
	for _, sh := range o.Shards {
		if sh.Engine == "" {
			sh.Engine = o.Engine
		}
		s.Shards = append(s.Shards, sh)
	}
}

// Totals sums the shard rows into one aggregate row: counters add,
// occupancy histograms add bucket-wise, high-water keeps the max.
func (s EngineStats) Totals() ShardStat {
	var t ShardStat
	t.Shard = -1
	for _, sh := range s.Shards {
		t.Queries += sh.Queries
		if sh.RingCap > t.RingCap {
			t.RingCap = sh.RingCap
		}
		t.Occupancy += sh.Occupancy
		if sh.HighWater > t.HighWater {
			t.HighWater = sh.HighWater
		}
		if len(sh.OccHist) > 0 {
			if t.OccHist == nil {
				t.OccHist = make([]int64, OccBuckets)
			}
			for i, c := range sh.OccHist {
				if i < len(t.OccHist) {
					t.OccHist[i] += c
				}
			}
		}
		t.Offered += sh.Offered
		t.Dropped += sh.Dropped
		t.Batches += sh.Batches
		t.Tuples += sh.Tuples
		t.KernelTuples += sh.KernelTuples
		t.InterpTuples += sh.InterpTuples
		t.KernelIn += sh.KernelIn
		t.KernelOut += sh.KernelOut
		t.CtlItems += sh.CtlItems
		t.CtlWaitNs += sh.CtlWaitNs
	}
	return t
}

// OccBucketBound returns the inclusive upper occupancy bound of
// histogram bucket i (bucket 0 holds empty-ring samples).
func OccBucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return (1 << i) - 1
}

// OccP99 estimates the 99th-percentile enqueue-time ring occupancy as a
// fraction of ring capacity, from a (possibly summed or windowed)
// occupancy histogram. The estimate is exact to the power-of-two bucket
// boundary; 0 when the histogram is empty.
func OccP99(hist []int64, ringCap int64) float64 {
	if ringCap <= 0 {
		return 0
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(float64(total)*0.99 + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range hist {
		cum += c
		if cum >= rank {
			bound := OccBucketBound(i)
			if bound > ringCap {
				bound = ringCap
			}
			return float64(bound) / float64(ringCap)
		}
	}
	return 1
}

// EngineStats implements Reporter: a racy-consistent walk of every
// shard's atomics, no barrier with the shard goroutines. A shard that
// has not hosted a query yet reports an all-zero row, so the view always
// shows the engine's full width.
func (e *ShardEngine) EngineStats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := EngineStats{
		Engine:  e.name,
		Queries: len(e.queries),
		Dropped: e.droppedTotal.Value(),
		Shards:  make([]ShardStat, 0, len(e.shards)),
	}
	for _, sh := range e.shards {
		st := &sh.stats
		row := ShardStat{
			Shard:        sh.idx,
			Queries:      st.queries.Load(),
			RingCap:      shardRingDepth,
			HighWater:    st.highWater.Load(),
			Offered:      st.offered.Load(),
			Dropped:      st.dropped.Load(),
			Batches:      st.batches.Load(),
			Tuples:       st.tuples.Load(),
			KernelTuples: st.kernelTuples.Load(),
			InterpTuples: st.interpTuples.Load(),
			KernelIn:     st.kernelIn.Load(),
			KernelOut:    st.kernelOut.Load(),
			CtlItems:     st.ctlItems.Load(),
			CtlWaitNs:    st.ctlWaitNs.Load(),
		}
		if sh.ring != nil {
			row.Occupancy = int64(sh.ring.occupancy())
		}
		hist := make([]int64, OccBuckets)
		for i := range st.occ {
			hist[i] = st.occ[i].Load()
		}
		row.OccHist = hist
		out.Shards = append(out.Shards, row)
	}
	return out
}

// TotalDropped implements Reporter.
func (e *ShardEngine) TotalDropped() int64 { return e.droppedTotal.Value() }
