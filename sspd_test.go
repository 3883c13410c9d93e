package sspd_test

import (
	"sync"
	"testing"
	"time"

	"sspd"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	net := sspd.NewSimNet(nil)
	defer net.Close()
	catalog := sspd.NewCatalog(100, 20)
	fed, err := sspd.NewFederation(net, catalog, sspd.Options{
		Strategy: sspd.Locality,
		Fanout:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", sspd.Point{},
		sspd.StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	mini := func(name string, c *sspd.Catalog) sspd.Processor {
		return sspd.NewMiniEngine(name, c)
	}
	for _, e := range []struct {
		id  string
		pos sspd.Point
	}{
		{"alpha", sspd.Point{X: 10}},
		{"beta", sspd.Point{X: 30}},
	} {
		if err := fed.AddEntity(e.id, e.pos, 2, mini); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := 0
	spec := sspd.QuerySpec{
		ID:     "watch",
		Source: "quotes",
		Filters: []sspd.FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000, Cost: 1},
		},
	}
	entityID, err := fed.SubmitQuery(spec, sspd.Point{X: 12}, func(sspd.Tuple) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if entityID != "alpha" && entityID != "beta" {
		t.Fatalf("unexpected entity %q", entityID)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tick := sspd.NewTicker(1, 100, 1.3)
	if err := fed.Publish("quotes", tick.Batch(25)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	if got != 25 {
		t.Fatalf("results = %d, want 25", got)
	}
}

// TestFacadeValueAndSchemaHelpers exercises the re-exported data model.
func TestFacadeValueAndSchemaHelpers(t *testing.T) {
	sc, err := sspd.NewSchema("s",
		sspd.Field{Name: "k", Type: sspd.Int(0).Kind()},
	)
	if err != nil {
		t.Fatal(err)
	}
	tu := sspd.NewTuple("s", 1, time.Unix(0, 0), sspd.Int(7))
	if err := sc.Validate(tu); err != nil {
		t.Fatal(err)
	}
	if sspd.Float(1.5).AsFloat() != 1.5 || sspd.String("x").AsString() != "x" {
		t.Error("value constructors broken")
	}
	if sspd.CountWindow(3).Count != 3 {
		t.Error("CountWindow")
	}
	if sspd.TimeWindow(time.Second).Duration != time.Second {
		t.Error("TimeWindow")
	}
	if sspd.SourceDirect.String() != "source-direct" {
		t.Error("strategy re-export")
	}
}

// TestFacadeLedger exercises the re-exported accounting type.
func TestFacadeLedger(t *testing.T) {
	now := time.Unix(0, 0)
	l := sspd.NewLedger(func() time.Time { return now })
	if err := l.Start("q", "e"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second)
	if l.Charge("e") != time.Second {
		t.Error("charge")
	}
}

// TestFacadeQueryLanguage exercises the sspdql facade round trip.
func TestFacadeQueryLanguage(t *testing.T) {
	spec, err := sspd.ParseQuery("q", "FROM quotes WHERE price BETWEEN 1 AND 2 TOP 2 OF price BY symbol WINDOW 10")
	if err != nil {
		t.Fatal(err)
	}
	if spec.TopK == nil || spec.TopK.K != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	text := sspd.FormatQuery(spec)
	again, err := sspd.ParseQuery("q", text)
	if err != nil {
		t.Fatal(err)
	}
	if sspd.FormatQuery(again) != text {
		t.Fatalf("format not a fixpoint: %q", text)
	}
	if _, err := sspd.ParseQuery("q", "NOT A QUERY"); err == nil {
		t.Fatal("garbage parsed")
	}
}

// TestFacadeLatency exercises the latency-attribution re-exports.
func TestFacadeLatency(t *testing.T) {
	if len(sspd.LatencyStages) != 5 {
		t.Fatalf("stages=%v", sspd.LatencyStages)
	}
	var att sspd.LatencyAttribution
	att.Merge(sspd.LatencyAttribution{})
	if att.E2E.Count != 0 {
		t.Fatal("empty merge")
	}
}
