package entity

import "sort"

// Network models the intra-entity LAN for the analytic evaluation.
type Network struct {
	// HopLatency is the one-way transfer latency between two
	// processors, in seconds.
	HopLatency float64
	// ProcBandwidth is each processor's usable egress bandwidth in
	// bytes/second; traffic beyond it marks the placement infeasible
	// (the paper's third heuristic exists to avoid this).
	ProcBandwidth float64
}

// DefaultNetwork is a fast local network: 0.5 ms hops, 100 MB/s per
// processor.
var DefaultNetwork = Network{HopLatency: 0.0005, ProcBandwidth: 100e6}

func (n Network) normalized() Network {
	if n.HopLatency <= 0 {
		n.HopLatency = DefaultNetwork.HopLatency
	}
	if n.ProcBandwidth <= 0 {
		n.ProcBandwidth = DefaultNetwork.ProcBandwidth
	}
	return n
}

// Evaluation reports the analytic performance of a placement. The model
// follows the paper's delay decomposition: a tuple's delay is its
// processing time, plus queue waiting on each processor it visits
// (M/M/1-style inflation 1/(1-utilization)), plus one network hop
// latency per processor boundary its pipeline crosses.
type Evaluation struct {
	// PR holds each query's Performance Ratio d/p.
	PR map[string]float64
	// PRMax is the worst ratio — the paper's objective.
	PRMax float64
	// WorstQuery is the query attaining PRMax.
	WorstQuery string
	// MeanPR is the load-unweighted mean ratio.
	MeanPR float64
	// Utilization maps processor to load/capacity.
	Utilization map[string]float64
	// MaxUtilization is the hottest processor's utilization.
	MaxUtilization float64
	// TrafficBytes is the total inter-processor traffic in bytes/s.
	TrafficBytes float64
	// Feasible is false when a processor is saturated (utilization >=
	// 1) or bandwidth is exceeded; PR values are then computed with a
	// capped waiting factor and should be read as "very bad".
	Feasible bool
}

// waitCap bounds the queueing inflation for saturated processors so
// comparisons still order placements sensibly.
const waitCap = 1e4

// Evaluate computes the analytic performance of an assignment.
func Evaluate(procs []Proc, queries []PlacementQuery, asg Assignment, net Network) Evaluation {
	net = net.normalized()
	capacity := make(map[string]float64, len(procs))
	for _, p := range procs {
		capacity[p.ID] = p.Capacity
	}
	load := make(map[string]float64, len(procs))
	egress := make(map[string]float64, len(procs))
	for _, q := range queries {
		for i := range q.Fragments {
			load[asg[FragmentRef{q.ID, i}]] += q.loadOf(i)
		}
	}
	util := make(map[string]float64, len(procs))
	feasible := true
	maxUtil := 0.0
	for _, p := range procs {
		u := load[p.ID] / p.Capacity
		util[p.ID] = u
		if u > maxUtil {
			maxUtil = u
		}
		if u >= 1 {
			feasible = false
		}
	}
	wait := func(proc string) float64 {
		u := util[proc]
		if u >= 1 {
			return waitCap
		}
		w := 1 / (1 - u)
		if w > waitCap {
			return waitCap
		}
		return w
	}

	ev := Evaluation{
		PR:          make(map[string]float64, len(queries)),
		Utilization: util,
		Feasible:    feasible,
	}
	traffic := 0.0
	sumPR := 0.0
	ids := make([]string, 0, len(queries))
	byID := make(map[string]PlacementQuery, len(queries))
	for _, q := range queries {
		ids = append(ids, q.ID)
		byID[q.ID] = q
	}
	sort.Strings(ids)
	for _, id := range ids {
		q := byID[id]
		var inherent, delay float64
		for i := range q.Fragments {
			proc := asg[FragmentRef{q.ID, i}]
			perTuple := q.Fragments[i].Cost / capacity[proc]
			inherent += perTuple
			delay += perTuple * wait(proc)
			if i > 0 {
				prev := asg[FragmentRef{q.ID, i - 1}]
				if prev != proc {
					delay += net.HopLatency
					bytes := q.rateInto(i) * q.TupleSize
					traffic += bytes
					egress[prev] += bytes
				}
			}
		}
		pr := 1.0
		if inherent > 0 {
			pr = delay / inherent
		}
		ev.PR[id] = pr
		sumPR += pr
		if pr > ev.PRMax {
			ev.PRMax = pr
			ev.WorstQuery = id
		}
	}
	for _, p := range procs {
		if egress[p.ID] > net.ProcBandwidth {
			ev.Feasible = false
		}
	}
	ev.MaxUtilization = maxUtil
	ev.TrafficBytes = traffic
	if len(ids) > 0 {
		ev.MeanPR = sumPR / float64(len(ids))
	}
	return ev
}

// MaxSpread returns the largest number of distinct processors any query
// occupies under asg — for checking the distribution-limit heuristic.
func MaxSpread(queries []PlacementQuery, asg Assignment) int {
	max := 0
	for _, q := range queries {
		if s := spreadOf(q, asg); s > max {
			max = s
		}
	}
	return max
}

// Imbalance returns max utilization over mean utilization (1 = perfect).
func (e Evaluation) Imbalance() float64 {
	if len(e.Utilization) == 0 {
		return 1
	}
	sum := 0.0
	for _, u := range e.Utilization {
		sum += u
	}
	mean := sum / float64(len(e.Utilization))
	if mean == 0 {
		return 1
	}
	return e.MaxUtilization / mean
}
