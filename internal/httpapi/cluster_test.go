package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sspd/internal/core"
	"sspd/internal/engine"
	"sspd/internal/metrics"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// statsTicks runs n digest periods and waits for the pushes to land.
func statsTicks(t *testing.T, fed *core.Federation, net *simnet.SimNet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		fed.StatsTick()
		if !net.Quiesce(2 * time.Second) {
			t.Fatal("quiesce after stats tick")
		}
	}
}

// TestClusterMetricsEndpoint is the acceptance check: after two digest
// periods the root's /cluster/metrics covers every entity, and the
// exposition survives the strict parser.
func TestClusterMetricsEndpoint(t *testing.T) {
	ts, fed, net := newTestServer(t)
	if resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
		"id": "q1", "query": "FROM quotes WHERE price < 500"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post query: %d", resp.StatusCode)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(10)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}
	statsTicks(t, fed, net, 2)

	body, resp := scrape(t, ts.URL+"/cluster/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := metrics.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("cluster exposition rejected by strict parser: %v\n%s", err, body)
	}
	byName := make(map[string]metrics.PromFamily)
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f, ok := byName["sspd_cluster_entities"]; !ok || f.Samples[0].Value != 3 {
		t.Fatalf("sspd_cluster_entities: %+v", f)
	}
	for _, fam := range []string{"sspd_cluster_entity_load", "sspd_cluster_entity_up",
		"sspd_cluster_entity_queries", "sspd_cluster_digest_age_seconds"} {
		f, ok := byName[fam]
		if !ok {
			t.Fatalf("missing family %s", fam)
		}
		if len(f.Samples) != 3 {
			t.Fatalf("%s has %d samples, want one per entity: %+v", fam, len(f.Samples), f.Samples)
		}
	}
	if _, ok := byName["sspd_cluster_pr_max"]; !ok {
		t.Fatal("missing sspd_cluster_pr_max")
	}

	// The federation-local exposition must also stay strict.
	local, _ := scrape(t, ts.URL+"/metrics")
	if _, err := metrics.ParsePrometheus(strings.NewReader(local)); err != nil {
		t.Fatalf("/metrics rejected by strict parser: %v", err)
	}
}

func TestClusterHealthEndpoint(t *testing.T) {
	ts, fed, net := newTestServer(t)
	statsTicks(t, fed, net, 2)
	var out struct {
		Root     string              `json:"root"`
		Entities []core.EntityHealth `json:"entities"`
		Rows     map[string]struct {
			PRSpark []float64 `json:"pr_spark"`
		} `json:"rows"`
	}
	if resp := getJSON(t, ts.URL+"/cluster/health", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/health: %d", resp.StatusCode)
	}
	if out.Root == "" || len(out.Entities) != 3 {
		t.Fatalf("health = root:%q entities:%d", out.Root, len(out.Entities))
	}
	for _, e := range out.Entities {
		if !e.Healthy {
			t.Errorf("%s unhealthy: %+v", e.Entity, e)
		}
		if len(out.Rows[e.Entity].PRSpark) == 0 {
			t.Errorf("%s: no sparkline in rows", e.Entity)
		}
	}
}

// TestClusterEndpointsWithoutPlane: a portal over a federation that
// never enabled the plane answers 404 with a JSON error body.
func TestClusterEndpointsWithoutPlane(t *testing.T) {
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed, err := core.New(net, workload.Catalog(100, 20), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	srv, err := New(fed, simnet.Point{})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	ts := hts.URL
	for _, path := range []string{"/cluster/metrics", "/cluster/health"} {
		var out map[string]string
		resp := getJSON(t, ts+path, &out)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(out["error"], "stats plane") {
			t.Fatalf("GET %s error body: %v", path, out)
		}
	}
	// The ops page itself is static and always served.
	if body, resp := scrape(t, ts+"/cluster"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "sspd cluster") {
		t.Fatalf("GET /cluster: %d", resp.StatusCode)
	}
}

func TestEventsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var out struct {
		LastSeq uint64         `json:"last_seq"`
		Dropped uint64         `json:"dropped"`
		Events  []obslog.Event `json:"events"`
	}
	if resp := getJSON(t, ts.URL+"/events", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events: %d", resp.StatusCode)
	}
	joins := 0
	for _, e := range out.Events {
		if e.Kind == "entity.join" {
			joins++
		}
	}
	if joins != 3 {
		t.Fatalf("journal shows %d entity.join events, want 3: %+v", joins, out.Events)
	}
	if out.LastSeq == 0 {
		t.Fatal("last_seq not reported")
	}

	// Kind filter: prefix matching at dot boundaries.
	var filtered struct {
		Events []obslog.Event `json:"events"`
	}
	if resp := getJSON(t, ts.URL+"/events?kind=entity", &filtered); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events?kind=entity: %d", resp.StatusCode)
	}
	for _, e := range filtered.Events {
		if !strings.HasPrefix(e.Kind, "entity.") {
			t.Fatalf("kind filter leaked %q", e.Kind)
		}
	}

	// since is an exclusive cursor: everything after last_seq is empty.
	var tail struct {
		Events []obslog.Event `json:"events"`
	}
	getJSON(t, ts.URL+"/events?since="+strconv.FormatUint(out.LastSeq, 10), &tail)
	if len(tail.Events) != 0 {
		t.Fatalf("since=last_seq returned %d events", len(tail.Events))
	}

	// Malformed parameters are 400s, not silent defaults.
	for _, q := range []string{"?since=abc", "?since=-1", "?kind=Bad..Kind", "?kind=UPPER"} {
		if _, resp := scrape(t, ts.URL+"/events"+q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /events%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTracesBadN: a malformed n is a 400, not a silently applied default.
func TestTracesBadN(t *testing.T) {
	ts, fed, _ := newTestServer(t)
	if _, err := fed.EnableTracing(1); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)
	for _, q := range []string{"?n=abc", "?n=0", "?n=-3"} {
		if _, resp := scrape(t, ts.URL+"/traces"+q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /traces%s: %d, want 400", q, resp.StatusCode)
		}
	}
	if _, resp := scrape(t, ts.URL+"/traces?n=5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces?n=5: %d", resp.StatusCode)
	}
}

// TestEdgeCutReadsMeasuredGraph: once the stats plane measures a stream
// well above its nominal rate, the sspd_edge_cut gauge and GET /stats'
// edge_cut both report the cut of the one query graph, QueryGraph(),
// which is weighted with the measured rate — not the nominal graph's.
func TestEdgeCutReadsMeasuredGraph(t *testing.T) {
	ts, fed, net := newTestServer(t)
	specs := make([]engine.QuerySpec, 3)
	for i := range specs {
		specs[i] = engine.QuerySpec{
			ID: fmt.Sprintf("q%d", i), Source: "quotes", Load: 5,
			Filters: []engine.FilterSpec{{Field: "price", Lo: float64(100 * i), Hi: float64(100*i + 500), Cost: 1}},
		}
		if err := fed.SubmitQueryTo(specs[i], fmt.Sprintf("e%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	statsTicks(t, fed, net, 1)
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(200)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond) // past the stats plane's 10ms rate guard
	statsTicks(t, fed, net, 2)

	assign, _ := fed.Assignment()
	want := fed.QueryGraph().EdgeCut(assign)
	nominal := core.BuildQueryGraph(specs, workload.Catalog(100, 20),
		map[string]core.StreamRate{"quotes": {TuplesPerSec: 100, BytesPerTuple: 60}}).EdgeCut(assign)
	if nominal <= 0 || want < 2*nominal {
		t.Fatalf("measured-graph cut %v, nominal cut %v: want the measured rate well above the nominal 100 tuples/s", want, nominal)
	}

	body, _ := scrape(t, ts.URL+"/metrics")
	fams, err := metrics.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	gauge := -1.0
	for _, f := range fams {
		if f.Name == "sspd_edge_cut" {
			gauge = f.Samples[0].Value
		}
	}
	if gauge != want {
		t.Errorf("sspd_edge_cut = %v, want the query graph's cut %v (nominal %v)", gauge, want, nominal)
	}
	var stats struct {
		EdgeCut float64 `json:"edge_cut"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.EdgeCut != want {
		t.Errorf("GET /stats edge_cut = %v, want the query graph's cut %v (nominal %v)", stats.EdgeCut, want, nominal)
	}
}
