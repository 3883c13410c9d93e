package httpapi

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"sspd/internal/latency"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// clusterLatencyView mirrors the /cluster/latency payload.
type clusterLatencyView struct {
	E2E struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean_seconds"`
		P99   float64 `json:"p99_seconds"`
	} `json:"e2e"`
	Stages map[string]struct {
		Count uint64  `json:"count"`
		Share float64 `json:"share"`
		P50   float64 `json:"p50_seconds"`
	} `json:"stages"`
	Queries []struct {
		Query      string             `json:"query"`
		Entity     string             `json:"entity"`
		PRMeasured float64            `json:"pr_measured"`
		Waterfall  map[string]float64 `json:"waterfall"`
		E2E        struct {
			Count uint64  `json:"count"`
			Mean  float64 `json:"mean_seconds"`
		} `json:"e2e"`
	} `json:"queries"`
	SLO []struct {
		Rule      string  `json:"rule"`
		Breached  bool    `json:"breached"`
		Evaluated bool    `json:"evaluated"`
		Value     float64 `json:"value"`
	} `json:"slo"`
	StageOrder []string `json:"stage_order"`
}

// TestClusterLatencyEndpoint drives traffic through the portal and
// checks the attribution view end to end: waterfall segments that sum
// to the measured end-to-end mean, per-stage shares that cover all
// delay, and the SLO verdict list.
func TestClusterLatencyEndpoint(t *testing.T) {
	ts, fed, net := newTestServer(t)

	// The stats plane is on, but without a tracer there is nothing to
	// attribute: the endpoint 404s with a JSON error.
	var errOut map[string]string
	if resp := getJSON(t, ts.URL+"/cluster/latency", &errOut); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /cluster/latency before enable: %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(errOut["error"], "latency attribution") {
		t.Fatalf("error body: %v", errOut)
	}

	if _, err := fed.EnableTracing(1); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)

	if resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
		"id": "q1", "query": "FROM quotes WHERE price < 1000"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post query: %d", resp.StatusCode)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(15)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}
	statsTicks(t, fed, net, 2)

	var out clusterLatencyView
	if resp := getJSON(t, ts.URL+"/cluster/latency", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/latency: %d", resp.StatusCode)
	}
	if out.E2E.Count != 15 {
		t.Fatalf("e2e count = %d, want 15", out.E2E.Count)
	}
	if len(out.StageOrder) != len(latency.Stages) {
		t.Fatalf("stage_order = %v", out.StageOrder)
	}

	// Stage shares partition the total attributed delay.
	var shareSum float64
	for st, s := range out.Stages {
		if s.Count != 15 {
			t.Errorf("stage %s count = %d, want 15", st, s.Count)
		}
		shareSum += s.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Fatalf("stage shares sum to %g, want 1", shareSum)
	}

	// One query row, routed to its hosting entity, with a waterfall
	// whose segments telescope to the measured mean end-to-end delay.
	if len(out.Queries) != 1 || out.Queries[0].Query != "q1" {
		t.Fatalf("queries: %+v", out.Queries)
	}
	q := out.Queries[0]
	if q.Entity == "" {
		t.Fatal("query row missing entity")
	}
	if q.PRMeasured <= 0 {
		t.Fatalf("pr_measured = %g", q.PRMeasured)
	}
	var wf float64
	for _, sec := range q.Waterfall {
		wf += sec
	}
	if q.E2E.Mean <= 0 || math.Abs(wf-q.E2E.Mean) > 1e-9*q.E2E.Mean+1e-12 {
		t.Fatalf("waterfall sums to %gs, e2e mean %gs", wf, q.E2E.Mean)
	}

	// The shipped SLO rules report verdicts.
	if len(out.SLO) != 2 || out.SLO[0].Rule != "p99_end_to_end < 250ms" ||
		out.SLO[1].Rule != "stage_share(network) < 60%" {
		t.Fatalf("SLO verdicts: %+v, want one per shipped rule", out.SLO)
	}

	// The ops page ships the latency panel.
	body, resp := scrape(t, ts.URL+"/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster: %d", resp.StatusCode)
	}
	for _, want := range []string{"cluster/latency", "lat-queries", "waterfall", "slo"} {
		if !strings.Contains(body, want) {
			t.Errorf("ops page missing %q", want)
		}
	}
}
