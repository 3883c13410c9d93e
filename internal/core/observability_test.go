package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/metrics"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// TestFederationTraceEndToEnd traces a tuple through every layer:
// publish at the source, relay hops down the dissemination tree, local
// delivery, the delegation processor, the operator fragment, and the
// final result.
func TestFederationTraceEndToEnd(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	tr, err := fed.EnableTracing(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.EnableTracing(1); err == nil {
		t.Fatal("double EnableTracing accepted")
	}
	defer trace.SetActive(nil)

	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 1000), simnet.Point{X: 15}, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(5)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}
	if tr.Sampled.Value() != 5 {
		t.Fatalf("Sampled = %d, want 5 (every=1)", tr.Sampled.Value())
	}
	spans := tr.Recent(5)
	if len(spans) != 5 {
		t.Fatalf("Recent returned %d spans", len(spans))
	}
	// Every span must show the full journey, starting with the publish
	// hop. (Hops interleave across entities in arrival order — a relay
	// hop at an uninterested entity may land after the result hop at the
	// hosting one — so only the first hop's position is fixed.)
	for _, span := range spans {
		seen := map[string]bool{}
		for _, h := range span.Hops {
			seen[h.Stage] = true
		}
		for _, stage := range []string{trace.StagePublish, trace.StageRelay, trace.StageDeliver,
			trace.StageDelegate, trace.StageOperator, trace.StageResult} {
			if !seen[stage] {
				t.Fatalf("span %d missing stage %q: %+v", span.ID, stage, span.Hops)
			}
		}
		if span.Hops[0].Stage != trace.StagePublish {
			t.Fatalf("span %d first hop = %q", span.ID, span.Hops[0].Stage)
		}
	}
	if fed.Tracer() != tr {
		t.Fatal("Tracer accessor mismatch")
	}
}

// TestFederationMetricsCollector scrapes the registry and checks that
// every federation-level family the observability layer promises is
// present.
func TestFederationMetricsCollector(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	if _, err := fed.EnableTracing(2); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)
	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 1000), simnet.Point{X: 15}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.SubmitQuery(priceQuery("q2", 0, 500), simnet.Point{X: 25}, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(20)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}

	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"sspd_entities 3",
		"sspd_queries 2",
		`sspd_pr_ratio{query="q1"}`,
		`sspd_pr_ratio{query="q2"}`,
		"sspd_pr_max ",
		`sspd_coordinator_events_total{event="join"} 3`,
		`sspd_relay_delivered_total{stream="quotes"}`,
		`sspd_relay_link_bytes_total{stream="quotes"}`,
		`sspd_relay_link_messages_total{stream="quotes"}`,
		`sspd_entity_load{entity="e00"}`,
		"sspd_edge_cut",
		"sspd_trace_sample_every 2",
		"sspd_trace_sampled_total 10",
		"sspd_rebalance_moves_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
	// Link bytes must be non-zero: the source relayed 20 tuples downstream.
	if strings.Contains(text, `sspd_relay_link_bytes_total{stream="quotes"} 0`) {
		t.Error("link bytes stayed zero after publishing")
	}
}

// TestFederationEntitySuppressedMetric: /metrics exposes, per entity, the
// rows its delegation fan-out kept off remote processors — for each
// processor other than the stream's delegation processor that hosts a
// head fragment, the delivered rows none of its queries is interested in
// — and the exposition stays strictly well-formed.
func TestFederationEntitySuppressedMetric(t *testing.T) {
	fed, net := newTestFederation(t, 1)
	specs := []engine.QuerySpec{
		priceQuery("all", 0, 1e9), // every row reaches the entity
		priceQuery("low", 0, 200),
		priceQuery("mid", 300, 500, "S0001", "S0002", "S0003"),
		priceQuery("high", 900, 1000),
	}
	for _, spec := range specs {
		if err := fed.SubmitQueryTo(spec, "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	batch := workload.NewTicker(3, 100, 1.2).Batch(200)
	if err := fed.Publish("quotes", batch); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}

	ent := fed.entities["e00"].ent
	sc, _ := fed.catalog.Lookup("quotes")
	remote := make(map[int][]stream.Interest)
	for _, spec := range specs {
		at, _ := ent.QueryPlacement(spec.ID)
		if p := simnet.NodeID(fmt.Sprintf("e00/p%d", at[0])); p != ent.Delegation("quotes") {
			remote[at[0]] = append(remote[at[0]], spec.Interest("quotes", sc))
		}
	}
	if len(remote) == 0 {
		t.Fatal("every query landed on the delegation processor")
	}
	var want int64
	for _, ins := range remote {
		for _, tu := range batch {
			if !slices.ContainsFunc(ins, func(in stream.Interest) bool { return in.Matches(sc, tu) }) {
				want++
			}
		}
	}
	if want == 0 || ent.Suppressed.Value() != want {
		t.Fatalf("Entity.Suppressed = %d, want %d (> 0)", ent.Suppressed.Value(), want)
	}

	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition rejected by the strict parser: %v", err)
	}
	i := slices.IndexFunc(fams, func(f metrics.PromFamily) bool { return f.Name == "sspd_entity_suppressed_total" })
	if i < 0 || fams[i].Type != "counter" || len(fams[i].Samples) != 1 {
		t.Fatalf("sspd_entity_suppressed_total family = %+v, want one counter series", fams)
	}
	if s := fams[i].Samples[0]; s.Value != float64(want) || len(s.Labels) != 1 || s.Labels[0] != metrics.L("entity", "e00") {
		t.Fatalf("sspd_entity_suppressed_total sample = %+v, want %d for entity e00", s, want)
	}
}

// TestFederationPRMaxWithMiniEngines: MiniEngine exposes no latency
// metrics, so PR falls back to 0 — present but zero, never absent.
func TestFederationPRMaxWithMiniEngines(t *testing.T) {
	fed, net := newTestFederation(t, 2)
	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 1000), simnet.Point{X: 15}, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if pr, ok := fed.QueryPR("q1"); ok || pr != 0 {
		t.Fatalf("QueryPR on MiniEngine = %v/%v, want 0/false", pr, ok)
	}
	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nsspd_pr_max 0\n") {
		t.Fatalf("sspd_pr_max must be present and 0 on MiniEngines:\n%s", sb.String())
	}
}
