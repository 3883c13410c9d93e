package entity

import (
	"fmt"
	"math/rand"
	"testing"
)

func mkProcs(n int, capacity float64) []Proc {
	out := make([]Proc, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Proc{ID: fmt.Sprintf("p%02d", i), Capacity: capacity})
	}
	return out
}

// mkWorkload builds a reproducible mixed workload: queries with 2-5
// fragments, varying selectivities and rates.
func mkWorkload(rng *rand.Rand, n int) []PlacementQuery {
	out := make([]PlacementQuery, 0, n)
	for i := 0; i < n; i++ {
		nf := 2 + rng.Intn(4)
		frags := make([]FragmentSpec, 0, nf)
		for f := 0; f < nf; f++ {
			frags = append(frags, FragmentSpec{
				Cost:        0.5 + rng.Float64()*2,
				Selectivity: 0.2 + rng.Float64()*0.7,
			})
		}
		out = append(out, PlacementQuery{
			ID:                fmt.Sprintf("q%03d", i),
			Fragments:         frags,
			InputRate:         20 + rng.Float64()*80,
			TupleSize:         100,
			DistributionLimit: 3,
		})
	}
	return out
}

func TestPlacementQueryDerivedQuantities(t *testing.T) {
	q := PlacementQuery{
		ID:        "q",
		InputRate: 100,
		TupleSize: 10,
		Fragments: []FragmentSpec{
			{Cost: 2, Selectivity: 0.5},
			{Cost: 4, Selectivity: 0.1},
		},
	}
	if got := q.rateInto(0); got != 100 {
		t.Errorf("rateInto(0) = %v", got)
	}
	if got := q.rateInto(1); got != 50 {
		t.Errorf("rateInto(1) = %v", got)
	}
	if got := q.loadOf(0); got != 200 {
		t.Errorf("loadOf(0) = %v", got)
	}
	if got := q.loadOf(1); got != 200 {
		t.Errorf("loadOf(1) = %v", got)
	}
	if got := q.TotalLoad(); got != 400 {
		t.Errorf("TotalLoad = %v", got)
	}
}

func TestPlacementQueryValidate(t *testing.T) {
	good := PlacementQuery{ID: "q", InputRate: 1, Fragments: []FragmentSpec{{Cost: 1, Selectivity: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []PlacementQuery{
		{InputRate: 1, Fragments: []FragmentSpec{{Cost: 1}}},
		{ID: "q", InputRate: 1},
		{ID: "q", Fragments: []FragmentSpec{{Cost: 1}}},
		{ID: "q", InputRate: 1, Fragments: []FragmentSpec{{Cost: 0}}},
		{ID: "q", InputRate: 1, Fragments: []FragmentSpec{{Cost: 1, Selectivity: -1}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestValidateInputs(t *testing.T) {
	procs := mkProcs(2, 100)
	q := PlacementQuery{ID: "q", InputRate: 1, Fragments: []FragmentSpec{{Cost: 1, Selectivity: 1}}}
	if err := validateInputs(procs, []PlacementQuery{q}); err != nil {
		t.Fatal(err)
	}
	if err := validateInputs(nil, nil); err == nil {
		t.Error("no processors accepted")
	}
	if err := validateInputs([]Proc{{ID: "", Capacity: 1}}, nil); err == nil {
		t.Error("empty processor id accepted")
	}
	if err := validateInputs([]Proc{{ID: "p", Capacity: 0}}, nil); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := validateInputs([]Proc{{ID: "p", Capacity: 1}, {ID: "p", Capacity: 1}}, nil); err == nil {
		t.Error("duplicate processor accepted")
	}
	if err := validateInputs(procs, []PlacementQuery{q, q}); err == nil {
		t.Error("duplicate query accepted")
	}
}

func TestAllPlacersCoverEveryFragment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	procs := mkProcs(4, 1000)
	queries := mkWorkload(rng, 20)
	placers := []Placer{PRPlacer{}, RandomPlacer{Seed: 7}, RoundRobinPlacer{}, LoadOnlyPlacer{}}
	for _, pl := range placers {
		asg, err := pl.Place(procs, queries)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		for _, q := range queries {
			for i := range q.Fragments {
				proc, ok := asg[FragmentRef{q.ID, i}]
				if !ok || proc == "" {
					t.Fatalf("%s left %s#%d unassigned", pl.Name(), q.ID, i)
				}
			}
		}
	}
}

func TestPlacersRejectBadInput(t *testing.T) {
	for _, pl := range []Placer{PRPlacer{}, RandomPlacer{}, RoundRobinPlacer{}, LoadOnlyPlacer{}} {
		if _, err := pl.Place(nil, nil); err == nil {
			t.Errorf("%s accepted empty processors", pl.Name())
		}
	}
}

func TestPRPlacerRespectsDistributionLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	procs := mkProcs(8, 1000)
	queries := mkWorkload(rng, 15)
	for i := range queries {
		queries[i].DistributionLimit = 2
	}
	asg, err := PRPlacer{}.Place(procs, queries)
	if err != nil {
		t.Fatal(err)
	}
	if spread := MaxSpread(queries, asg); spread > 2 {
		t.Errorf("max spread = %d, limit 2", spread)
	}
}

func TestPRPlacerBeatsBaselinesOnPRMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Capacity chosen so the cluster runs hot (~70%): queueing matters.
	queries := mkWorkload(rng, 30)
	total := 0.0
	for _, q := range queries {
		total += q.TotalLoad()
	}
	procs := mkProcs(6, total/6/0.7)
	net := DefaultNetwork

	evalOf := func(p Placer) Evaluation {
		asg, err := p.Place(procs, queries)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		return Evaluate(procs, queries, asg, net)
	}
	pr := evalOf(PRPlacer{})
	random := evalOf(RandomPlacer{Seed: 11})
	rr := evalOf(RoundRobinPlacer{})

	if !pr.Feasible {
		t.Fatalf("pr-aware placement infeasible: maxUtil=%v", pr.MaxUtilization)
	}
	if pr.PRMax >= random.PRMax {
		t.Errorf("pr-aware PRmax %v not better than random %v", pr.PRMax, random.PRMax)
	}
	if pr.PRMax >= rr.PRMax {
		t.Errorf("pr-aware PRmax %v not better than round-robin %v", pr.PRMax, rr.PRMax)
	}
	// And traffic: round-robin crosses the network at every stage.
	if pr.TrafficBytes >= rr.TrafficBytes {
		t.Errorf("pr-aware traffic %v not lower than round-robin %v", pr.TrafficBytes, rr.TrafficBytes)
	}
}

func TestLoadOnlyPlacerBalancesButPaysTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	queries := mkWorkload(rng, 30)
	procs := mkProcs(6, 1e6)
	loadOnly, err := LoadOnlyPlacer{}.Place(procs, queries)
	if err != nil {
		t.Fatal(err)
	}
	prAware, err := PRPlacer{}.Place(procs, queries)
	if err != nil {
		t.Fatal(err)
	}
	evLoad := Evaluate(procs, queries, loadOnly, DefaultNetwork)
	evPR := Evaluate(procs, queries, prAware, DefaultNetwork)
	if evLoad.Imbalance() > 1.5 {
		t.Errorf("load-only imbalance = %v", evLoad.Imbalance())
	}
	// Load-only ignores hops: it must pay more traffic than PR-aware.
	if evPR.TrafficBytes >= evLoad.TrafficBytes {
		t.Errorf("pr-aware traffic %v not lower than load-only %v",
			evPR.TrafficBytes, evLoad.TrafficBytes)
	}
}

func TestEvaluateSaturationDetection(t *testing.T) {
	procs := []Proc{{ID: "p0", Capacity: 10}}
	q := PlacementQuery{
		ID: "q", InputRate: 100, TupleSize: 10,
		Fragments: []FragmentSpec{{Cost: 1, Selectivity: 1}},
	}
	asg := Assignment{FragmentRef{"q", 0}: "p0"}
	ev := Evaluate(procs, []PlacementQuery{q}, asg, DefaultNetwork)
	if ev.Feasible {
		t.Error("saturated placement marked feasible")
	}
	if ev.PRMax < waitCap {
		t.Errorf("saturated PRmax = %v, want capped wait %v", ev.PRMax, float64(waitCap))
	}
}

func TestEvaluateBandwidthFeasibility(t *testing.T) {
	procs := mkProcs(2, 1e9)
	q := PlacementQuery{
		ID: "q", InputRate: 1000, TupleSize: 1e6, // 1 GB/s across the hop
		Fragments: []FragmentSpec{
			{Cost: 1, Selectivity: 1},
			{Cost: 1, Selectivity: 1},
		},
	}
	asg := Assignment{
		FragmentRef{"q", 0}: "p00",
		FragmentRef{"q", 1}: "p01",
	}
	ev := Evaluate(procs, []PlacementQuery{q}, asg, Network{HopLatency: 0.001, ProcBandwidth: 1e6})
	if ev.Feasible {
		t.Error("bandwidth-violating placement marked feasible")
	}
	if ev.TrafficBytes != 1000*1e6 {
		t.Errorf("traffic = %v", ev.TrafficBytes)
	}
}

func TestEvaluationHelpers(t *testing.T) {
	procs := mkProcs(2, 100)
	queries := []PlacementQuery{
		{ID: "a", InputRate: 10, TupleSize: 8, Fragments: []FragmentSpec{{Cost: 1, Selectivity: 1}}},
		{ID: "b", InputRate: 10, TupleSize: 8, Fragments: []FragmentSpec{{Cost: 3, Selectivity: 1}}},
	}
	asg := Assignment{
		FragmentRef{"a", 0}: "p00",
		FragmentRef{"b", 0}: "p01",
	}
	ev := Evaluate(procs, queries, asg, DefaultNetwork)
	if !ev.Feasible {
		t.Fatal("feasible placement rejected")
	}
	if ev.Imbalance() <= 1 {
		t.Errorf("imbalance = %v, want > 1 (uneven loads)", ev.Imbalance())
	}
	if ev.MeanPR <= 0 {
		t.Error("mean PR not computed")
	}
	empty := Evaluation{}
	if empty.Imbalance() != 1 {
		t.Error("empty evaluation helpers wrong")
	}
}

func TestDistributionLimitAblation(t *testing.T) {
	// Sweeping the distribution limit: limit 1 forgoes parallelism (a
	// hot processor), unlimited pays hops; an intermediate limit should
	// be at least as good on PRmax as limit 1.
	rng := rand.New(rand.NewSource(5))
	queries := mkWorkload(rng, 24)
	total := 0.0
	for _, q := range queries {
		total += q.TotalLoad()
	}
	procs := mkProcs(6, total/6/0.7)
	prAt := func(limit int) float64 {
		qs := make([]PlacementQuery, len(queries))
		copy(qs, queries)
		for i := range qs {
			qs[i].DistributionLimit = limit
		}
		asg, err := PRPlacer{}.Place(procs, qs)
		if err != nil {
			t.Fatal(err)
		}
		return Evaluate(procs, qs, asg, DefaultNetwork).PRMax
	}
	if prAt(3) > prAt(1) {
		t.Errorf("limit 3 PRmax %v worse than limit 1 %v", prAt(3), prAt(1))
	}
}
