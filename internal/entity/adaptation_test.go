package entity

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sspd/internal/engine"
	"sspd/internal/operator"
	"sspd/internal/stream"
)

func testCatalog(t testing.TB) *stream.Catalog {
	t.Helper()
	c := stream.NewCatalog()
	if err := c.Register(stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000},
		stream.Field{Name: "volume", Type: stream.KindInt, Lo: 0, Hi: 1000},
	)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(stream.MustSchema("trades",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "qty", Type: stream.KindInt, Lo: 0, Hi: 1000},
	)); err != nil {
		t.Fatal(err)
	}
	return c
}

func quote(seq uint64, symbol string, price float64, volume int64) stream.Tuple {
	return stream.NewTuple("quotes", seq, time.Unix(int64(seq), 0).UTC(),
		stream.String(symbol), stream.Float(price), stream.Int(volume))
}

func TestOptimalFilterOrder(t *testing.T) {
	// rank = cost/(1-sel): f0: 1/(1-0.9)=10, f1: 1/(1-0.1)=1.11,
	// f2: 5/(1-0.5)=10 -> order f1, f0, f2 (tie by stability f0 first).
	costs := []float64{1, 1, 5}
	sels := []float64{0.9, 0.1, 0.5}
	perm := engine.OptimalFilterOrder(costs, sels)
	if perm[0] != 1 {
		t.Errorf("perm = %v, want f1 first", perm)
	}
	// Non-reducing filters sort last.
	perm2 := engine.OptimalFilterOrder([]float64{1, 1}, []float64{1.0, 0.5})
	if perm2[0] != 1 || perm2[1] != 0 {
		t.Errorf("perm = %v, want selective filter first", perm2)
	}
	if got := engine.OptimalFilterOrder(nil, nil); len(got) != 0 {
		t.Errorf("empty perm = %v", got)
	}
}

func TestExpectedFilterCost(t *testing.T) {
	costs := []float64{1, 2}
	sels := []float64{0.5, 0.5}
	// Order (0,1): 1 + 0.5*2 = 2. Order (1,0): 2 + 0.5*1 = 2.5.
	if got := engine.ExpectedFilterCost(costs, sels, []int{0, 1}); got != 2 {
		t.Errorf("cost(0,1) = %v", got)
	}
	if got := engine.ExpectedFilterCost(costs, sels, []int{1, 0}); got != 2.5 {
		t.Errorf("cost(1,0) = %v", got)
	}
}

// Property: the rank ordering is no worse than any other order we try.
func TestOptimalOrderBeatsRandomProperty(t *testing.T) {
	f := func(rawCosts, rawSels []uint8, shuffle uint8) bool {
		n := len(rawCosts)
		if len(rawSels) < n {
			n = len(rawSels)
		}
		if n < 2 {
			return true
		}
		if n > 6 {
			n = 6
		}
		costs := make([]float64, n)
		sels := make([]float64, n)
		for i := 0; i < n; i++ {
			costs[i] = 1 + float64(rawCosts[i]%10)
			sels[i] = float64(rawSels[i]%100) / 100
		}
		best := engine.OptimalFilterOrder(costs, sels)
		bestCost := engine.ExpectedFilterCost(costs, sels, best)
		// Compare against a rotated order.
		other := make([]int, n)
		for i := range other {
			other[i] = (i + int(shuffle)%n) % n
		}
		return bestCost <= engine.ExpectedFilterCost(costs, sels, other)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAMAdaptsToSelectivityShift(t *testing.T) {
	catalog := testCatalog(t)
	spec := engine.QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000, Cost: 1}, // passes everything
			{Field: "volume", Lo: 0, Hi: 100, Cost: 1}, // selective
		},
	}
	q, err := engine.Compile(spec, catalog, nil)
	if err != nil {
		t.Fatal(err)
	}
	am, err := NewAM(q, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Workload: volume mostly 500 (filter 1 rejects), price always in
	// range (filter 0 useless). The AM should move filter 1 first.
	for i := 0; i < 500; i++ {
		am.Feed("quotes", quote(uint64(i), "ibm", 500, 500))
	}
	if am.Adaptations.Value() == 0 {
		t.Fatal("AM never adapted")
	}
	costs := q.FilterCosts()
	sels := q.FilterSelectivities()
	if sels[0] > sels[1] {
		t.Errorf("selective filter not first: sels=%v costs=%v", sels, costs)
	}
}

func TestAMErrorsAndDefaults(t *testing.T) {
	if _, err := NewAM(nil, 0, 0); err == nil {
		t.Error("nil query accepted")
	}
	catalog := testCatalog(t)
	q, err := engine.Compile(engine.QuerySpec{
		ID: "q", Source: "quotes",
		Filters: []engine.FilterSpec{{Field: "price", Lo: 0, Hi: 1, Cost: 1}},
	}, catalog, nil)
	if err != nil {
		t.Fatal(err)
	}
	am, err := NewAM(q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Single filter: adaptation is a no-op but must not crash.
	for i := 0; i < 600; i++ {
		am.Feed("quotes", quote(uint64(i), "a", 0.5, 1))
	}
	if am.Adaptations.Value() != 0 {
		t.Error("single-filter query adapted")
	}
}

func TestAMReducesWorkAfterShift(t *testing.T) {
	// Two identical queries fed the same shifted workload: one behind an
	// AM, one static. After the shift the AM's total operator
	// evaluations must be lower.
	catalog := testCatalog(t)
	mkQuery := func() *engine.Query {
		q, err := engine.Compile(engine.QuerySpec{
			ID:     "q",
			Source: "quotes",
			Filters: []engine.FilterSpec{
				{Field: "price", Lo: 0, Hi: 500, Cost: 1},
				{Field: "volume", Lo: 0, Hi: 10, Cost: 1},
			},
		}, catalog, nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	adaptive := mkQuery()
	static := mkQuery()
	am, err := NewAM(adaptive, 50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	feedBoth := func(tu stream.Tuple) {
		am.Feed("quotes", tu)
		static.Feed("quotes", tu)
	}
	// Phase 1: both filters pass ~everything (volume <= 10, price low).
	for i := 0; i < 200; i++ {
		feedBoth(quote(uint64(i), "a", 100, 5))
	}
	// Phase 2 (the shift): volume huge -> filter 1 rejects everything;
	// static order evaluates the useless price filter first forever.
	for i := 200; i < 2000; i++ {
		feedBoth(quote(uint64(i), "a", 100, 999))
	}
	work := func(q *engine.Query) int64 {
		var sum int64
		for _, op := range q.Operators() {
			sum += op.Stats().In()
		}
		return sum
	}
	if am.Adaptations.Value() == 0 {
		t.Fatal("AM never adapted after the shift")
	}
	if work(adaptive) >= work(static) {
		t.Errorf("adaptive work %d not below static %d", work(adaptive), work(static))
	}
}

func TestDownstreamChooser(t *testing.T) {
	if _, err := NewDownstreamChooser(nil, 0); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := NewDownstreamChooser([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate candidates accepted")
	}
	c, err := NewDownstreamChooser([]string{"slow", "fast"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Unmeasured candidates get explored first.
	first := c.Choose()
	c.Report(first, 0.5)
	second := c.Choose()
	if second == first {
		t.Fatalf("second choice %q should explore the unmeasured candidate", second)
	}
	c.Report("fast", 0.001)
	c.Report("slow", 0.5)
	for i := 0; i < 20; i++ {
		c.Report("fast", 0.001)
		c.Report("slow", 0.5)
	}
	picks := map[string]int{}
	for i := 0; i < 100; i++ {
		picks[c.Choose()]++
	}
	if picks["fast"] < 90 {
		t.Errorf("fast picked %d/100, want ~all", picks["fast"])
	}
	if got := c.Score("slow"); math.Abs(got-0.5) > 0.1 {
		t.Errorf("slow score = %v", got)
	}
	if got := c.Score("unknown"); got != 0 {
		t.Errorf("unknown score = %v", got)
	}
	c.Report("unknown", 1) // ignored, no panic
}

func TestDownstreamChooserExploration(t *testing.T) {
	c, err := NewDownstreamChooser([]string{"a", "b"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Report("a", 0.001)
	c.Report("b", 10)
	picks := map[string]int{}
	for i := 0; i < 100; i++ {
		picks[c.Choose()]++
	}
	// Every 2nd pick explores round-robin, so b still gets traffic.
	if picks["b"] == 0 {
		t.Error("exploration never picked the slow candidate")
	}
}

// TestDownstreamChooserColdStartRotation pins the cold-start fix: while
// candidates are unmeasured, successive picks rotate through them
// instead of herding the whole feedback round-trip window onto the
// first candidate in sorted order.
func TestDownstreamChooserColdStartRotation(t *testing.T) {
	c, err := NewDownstreamChooser([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	picks := map[string]int{}
	for i := 0; i < 9; i++ {
		picks[c.Choose()]++
	}
	for _, id := range []string{"a", "b", "c"} {
		if picks[id] != 3 {
			t.Fatalf("cold-start picks unbalanced: %v", picks)
		}
	}
	// Once one candidate is measured, rotation continues over the rest.
	c.Report("a", 0.5)
	next := map[string]bool{}
	for i := 0; i < 4; i++ {
		next[c.Choose()] = true
	}
	if next["a"] || !next["b"] || !next["c"] {
		t.Fatalf("partial cold-start picks = %v, want rotation over b,c only", next)
	}
}

// TestDownstreamChooserExploreSkipsBest pins the explore-tick fix: an
// exploration slot must probe a NON-best candidate — regular traffic
// already measures the best one continuously.
func TestDownstreamChooserExploreSkipsBest(t *testing.T) {
	c, err := NewDownstreamChooser([]string{"a", "b", "c"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Report("a", 0.001)
	c.Report("b", 1)
	c.Report("c", 1)
	explored := map[string]int{}
	for i := 0; i < 100; i++ {
		if pick := c.Choose(); pick != "a" {
			explored[pick]++
		}
	}
	if explored["b"] == 0 || explored["c"] == 0 {
		t.Fatalf("explore ticks did not cover both non-best candidates: %v", explored)
	}
	if got := c.RoutedCount(); got != 100 {
		t.Fatalf("RoutedCount = %d, want 100", got)
	}
	if got := c.ExploredCount(); got == 0 {
		t.Fatal("ExploredCount = 0 after 100 explore-eligible picks")
	}
}

// TestDownstreamChooserConcurrency hammers Choose/Report/Best/Score
// from competing goroutines — the production shape, where upstream
// fragment goroutines route while the AM plane reports trace-measured
// delays. Run under -race; also asserts every pick stays valid.
func TestDownstreamChooserConcurrency(t *testing.T) {
	candidates := []string{"a", "b", "c", "d"}
	c, err := NewDownstreamChooser(candidates, 8)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, id := range candidates {
		valid[id] = true
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if !valid[c.Choose()] {
					bad.Add(1)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Report(candidates[(g+i)%len(candidates)], float64(i%7)/1000)
				_ = c.Best()
				_ = c.Score(candidates[i%len(candidates)])
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d invalid picks under concurrency", bad.Load())
	}
	if got := c.RoutedCount(); got != 4*5000 {
		t.Fatalf("RoutedCount = %d, want %d", got, 4*5000)
	}
}

func TestSplitSpec(t *testing.T) {
	spec := engine.QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "a", Lo: 0, Hi: 1},
			{Field: "b", Lo: 0, Hi: 1},
			{Field: "c", Lo: 0, Hi: 1},
		},
		Agg: &engine.AggSpec{Fn: operator.AggCount},
	}
	frags := SplitSpec(spec, 2)
	if len(frags) != 2 {
		t.Fatalf("frags = %d", len(frags))
	}
	if frags[0].ID != "q#0" || frags[1].ID != "q#1" {
		t.Errorf("ids = %s,%s", frags[0].ID, frags[1].ID)
	}
	if len(frags[0].Filters) != 2 || len(frags[1].Filters) != 1 {
		t.Errorf("filter split = %d/%d", len(frags[0].Filters), len(frags[1].Filters))
	}
	if frags[0].Agg != nil || frags[1].Agg == nil {
		t.Error("aggregate not in last fragment")
	}
	if frags[0].Source != "quotes" || frags[1].Source != "quotes" {
		t.Error("fragments must keep the source stream")
	}
	// n greater than filters clamps.
	many := SplitSpec(spec, 10)
	if len(many) != 3 {
		t.Errorf("clamped frags = %d", len(many))
	}
	// Joins never split.
	joined := spec
	joined.Join = &engine.JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol"}
	single := SplitSpec(joined, 3)
	if len(single) != 1 || single[0].ID != "q#0" {
		t.Errorf("join split = %v", single)
	}
	// Single filter never splits.
	small := engine.QuerySpec{ID: "s", Source: "quotes",
		Filters: []engine.FilterSpec{{Field: "a", Lo: 0, Hi: 1}}}
	if got := SplitSpec(small, 3); len(got) != 1 {
		t.Errorf("small split = %d", len(got))
	}
}
