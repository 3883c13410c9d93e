package workload

import (
	"testing"

	"sspd/internal/stream"
)

func TestSchemas(t *testing.T) {
	q := Quotes(50)
	if q.Name() != "quotes" || q.NumFields() != 3 {
		t.Errorf("quotes schema %v", q)
	}
	if i, ok := q.FieldIndex("symbol"); !ok || q.Field(i).Card != 50 {
		t.Error("symbol cardinality not recorded")
	}
	if Trades(10).Name() != "trades" {
		t.Error("trades schema")
	}
	if Flows(10).NumFields() != 4 {
		t.Error("flows schema")
	}
	c := Catalog(50, 10)
	for _, name := range []string{"quotes", "trades", "flows"} {
		if _, ok := c.Lookup(name); !ok {
			t.Errorf("catalog lacks %s", name)
		}
	}
}

func TestTickerDeterminism(t *testing.T) {
	a := NewTicker(42, 100, 1.2)
	b := NewTicker(42, 100, 1.2)
	for i := 0; i < 50; i++ {
		ta, tb := a.Next(), b.Next()
		if ta.String() != tb.String() {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, ta, tb)
		}
	}
}

func TestTickerValidity(t *testing.T) {
	tick := NewTicker(7, 20, 1.5)
	sc := Quotes(20)
	var prev uint64
	for i := 0; i < 200; i++ {
		tu := tick.Next()
		if err := sc.Validate(tu); err != nil {
			t.Fatalf("tuple %d invalid: %v", i, err)
		}
		if tu.Seq <= prev {
			t.Fatalf("sequence not increasing at %d", i)
		}
		prev = tu.Seq
		price := tu.Value(1).AsFloat()
		if price < 0 || price > 1000 {
			t.Fatalf("price %v outside domain", price)
		}
	}
}

func TestTickerSkew(t *testing.T) {
	tick := NewTicker(1, 100, 2.0)
	counts := map[string]int{}
	n := 5000
	for i := 0; i < n; i++ {
		tu := tick.Next()
		counts[tu.Value(0).AsString()]++
	}
	// With strong skew the hottest symbol should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/4 {
		t.Errorf("hottest symbol only %d of %d — zipf skew missing", max, n)
	}
	if len(tick.Symbols()) != 100 {
		t.Error("symbol universe size")
	}
}

func TestTickerClampsAndTrades(t *testing.T) {
	tick := NewTicker(1, 0, 0) // degenerate params clamp
	tu := tick.Next()
	if tu.Stream != "quotes" {
		t.Error("stream name")
	}
	tr := tick.NextTrade()
	if tr.Stream != "trades" || len(tr.Values) != 2 {
		t.Errorf("trade = %v", tr)
	}
	b := tick.Batch(10)
	if len(b) != 10 {
		t.Errorf("batch = %d", len(b))
	}
}

func TestFlowGen(t *testing.T) {
	g := NewFlowGen(3, 10)
	sc := Flows(10)
	for i := 0; i < 100; i++ {
		tu := g.Next()
		if err := sc.Validate(tu); err != nil {
			t.Fatalf("flow %d invalid: %v", i, err)
		}
	}
	if len(g.Batch(5)) != 5 {
		t.Error("batch size")
	}
	// Degenerate host count clamps.
	small := NewFlowGen(1, 0)
	if small.Next().Stream != "flows" {
		t.Error("clamped flowgen broken")
	}
}

func TestQueryGenProducesValidSpecs(t *testing.T) {
	tick := NewTicker(5, 100, 1.2)
	catalog := Catalog(100, 10)
	g := NewQueryGen(5, tick.Symbols(), 4, 0.3)
	specs := g.Specs(100)
	if len(specs) != 100 {
		t.Fatalf("specs = %d", len(specs))
	}
	ids := map[string]bool{}
	joins, aggs := 0, 0
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %s invalid: %v", spec.ID, err)
		}
		if ids[spec.ID] {
			t.Fatalf("duplicate id %s", spec.ID)
		}
		ids[spec.ID] = true
		if spec.Join != nil {
			joins++
		}
		if spec.Agg != nil {
			aggs++
		}
		if spec.Load <= 0 {
			t.Fatalf("spec %s has no load", spec.ID)
		}
	}
	if aggs == 0 {
		t.Error("no aggregate queries generated")
	}
	// Interests must be derivable and non-trivial.
	sc, _ := catalog.Lookup("quotes")
	in := specs[0].Interest("quotes", sc)
	if in.Unconstrained() {
		t.Error("generated query has unconstrained interest")
	}
	sel := in.Selectivity(sc)
	if sel <= 0 || sel >= 1 {
		t.Errorf("interest selectivity = %v, want in (0,1)", sel)
	}
}

func TestQueryGenOverlapStructure(t *testing.T) {
	tick := NewTicker(5, 100, 1.2)
	sc := Quotes(100)
	// High overlap between groups => more pairwise interest overlap.
	overlapAt := func(ov float64) float64 {
		g := NewQueryGen(9, tick.Symbols(), 4, ov)
		specs := g.Specs(60)
		total := 0.0
		for i := 0; i < len(specs); i++ {
			for j := i + 1; j < len(specs); j++ {
				a := specs[i].Interest("quotes", sc)
				b := specs[j].Interest("quotes", sc)
				total += stream.Overlap(a, b, sc)
			}
		}
		return total
	}
	low, high := overlapAt(0), overlapAt(0.9)
	if high <= low {
		t.Errorf("overlap knob broken: high=%v low=%v", high, low)
	}
}

func TestQueryGenClamps(t *testing.T) {
	g := NewQueryGen(1, []string{"A"}, 0, -1)
	spec := g.Next()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := NewQueryGen(1, []string{"A", "B"}, 10, 2)
	if err := g2.Next().Validate(); err != nil {
		t.Fatal(err)
	}
}
