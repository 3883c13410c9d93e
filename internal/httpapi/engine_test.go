package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sspd/internal/core"
	"sspd/internal/engine"
	"sspd/internal/metrics"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// engineFamilies is the full sspd_engine_* exposition surface; every
// family must round-trip through the strict parser on BOTH /metrics and
// /cluster/metrics.
var engineFamilies = []string{
	"sspd_engine_queries",
	"sspd_engine_offered_total",
	"sspd_engine_dropped_total",
	"sspd_engine_batches_total",
	"sspd_engine_tuples_total",
	"sspd_engine_kernel_selectivity",
	"sspd_engine_kernel_share",
	"sspd_engine_ctl_total",
	"sspd_engine_ctl_wait_seconds_total",
	"sspd_engine_shard_occupancy",
	"sspd_engine_shard_high_water",
	"sspd_engine_shard_dropped_total",
	"sspd_engine_drop_rate",
	"sspd_engine_ring_occupancy_p99",
	"sspd_engine_saturated",
	"sspd_engine_saturations_total",
	"sspd_engine_profile_captures_total",
}

// newEngineTestServer is newTestServer with shard engines (the
// introspectable kind) and no plane on yet.
func newEngineTestServer(t *testing.T) (*httptest.Server, *core.Federation, *simnet.SimNet) {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	catalog := workload.Catalog(100, 20)
	fed, err := core.New(net, catalog, core.Options{Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if err := fed.AddSource("quotes", simnet.Point{},
		core.StreamRate{TuplesPerSec: 100, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	shard := func(name string, c *stream.Catalog) engine.Processor {
		return engine.NewShard(name, c, 2)
	}
	for i := 0; i < 3; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i),
			simnet.Point{X: float64(10 + i*20)}, 2, shard); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(fed, simnet.Point{X: 25})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, fed, net
}

// TestClusterEngineEndpoint drives traffic through shard engines and
// checks GET /cluster/engine plus the sspd_engine_* families on both
// metric endpoints.
func TestClusterEngineEndpoint(t *testing.T) {
	ts, fed, net := newEngineTestServer(t)

	// Disabled planes 404 with JSON errors.
	var errOut map[string]string
	if resp := getJSON(t, ts.URL+"/cluster/engine", &errOut); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /cluster/engine before enable: %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(errOut["error"], "engine introspection") {
		t.Fatalf("error body: %v", errOut)
	}
	if resp := getJSON(t, ts.URL+"/profiles", &errOut); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /profiles before enable: %d, want 404", resp.StatusCode)
	}

	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableProfiling(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}

	if resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
		"id": "q1", "query": "FROM quotes WHERE price < 1000"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post query: %d", resp.StatusCode)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(50)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}
	statsTicks(t, fed, net, 2)

	// The cluster engine view covers every entity with shard telemetry.
	var view struct {
		Entities []core.EntityEngine `json:"entities"`
		DropRate float64             `json:"drop_rate"`
		Verdicts []struct {
			Rule      string `json:"rule"`
			Breached  bool   `json:"breached"`
			Evaluated bool   `json:"evaluated"`
		} `json:"verdicts"`
		Saturated bool `json:"saturated"`
	}
	if resp := getJSON(t, ts.URL+"/cluster/engine", &view); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster/engine: %d", resp.StatusCode)
	}
	if len(view.Entities) != 3 {
		t.Fatalf("view has %d entities, want 3", len(view.Entities))
	}
	var offered, tuples int64
	for _, ee := range view.Entities {
		if len(ee.Stats.Shards) == 0 {
			t.Fatalf("%s: no shard rows", ee.Entity)
		}
		tot := ee.Stats.Totals()
		offered += tot.Offered
		tuples += tot.Tuples
		for _, sh := range ee.Stats.Shards {
			if sh.RingCap <= 0 {
				t.Fatalf("%s shard %d: RingCap = %d", ee.Entity, sh.Shard, sh.RingCap)
			}
			if sh.Engine == "" {
				t.Fatalf("%s shard %d: merged row missing engine name", ee.Entity, sh.Shard)
			}
		}
	}
	// The published batch reached the hosting entity's shard rings.
	if offered == 0 || tuples == 0 {
		t.Fatalf("no traffic visible in the view: offered=%d tuples=%d", offered, tuples)
	}
	if len(view.Verdicts) != 2 || view.Verdicts[0].Rule != "drop_rate < 1%" ||
		view.Verdicts[1].Rule != "ring_occupancy_p99 < 75%" {
		t.Fatalf("verdicts = %+v, want one per shipped backpressure rule", view.Verdicts)
	}
	if view.Saturated {
		t.Fatal("unsaturated run reported saturated")
	}

	// Every sspd_engine_* family renders on both endpoints and survives
	// the strict parser.
	for _, url := range []string{ts.URL + "/metrics", ts.URL + "/cluster/metrics"} {
		body, resp := scrape(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		fams, err := metrics.ParsePrometheus(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s rejected by strict parser: %v", url, err)
		}
		byName := make(map[string]metrics.PromFamily)
		for _, f := range fams {
			byName[f.Name] = f
		}
		for _, fam := range engineFamilies {
			f, ok := byName[fam]
			if !ok {
				t.Errorf("%s missing family %s", url, fam)
				continue
			}
			if len(f.Samples) == 0 {
				t.Errorf("%s family %s has no samples", url, fam)
			}
		}
		// Per-entity families carry one sample per entity; the kernel/
		// interpreted split doubles the tuples family.
		if f := byName["sspd_engine_queries"]; len(f.Samples) != 3 {
			t.Errorf("%s sspd_engine_queries has %d samples, want 3", url, len(f.Samples))
		}
		if f := byName["sspd_engine_tuples_total"]; len(f.Samples) != 6 {
			t.Errorf("%s sspd_engine_tuples_total has %d samples, want 6", url, len(f.Samples))
		}
		// The entity-level drop counter satellite rides the cluster digest.
		if url == ts.URL+"/cluster/metrics" {
			f, ok := byName["sspd_cluster_entity_dropped_total"]
			if !ok || len(f.Samples) != 3 {
				t.Errorf("sspd_cluster_entity_dropped_total: %+v, want 3 samples", f)
			}
		}
	}

	// Profiles: trigger one capture and fetch it back.
	fed.Profiler().Trigger("test")
	fed.Profiler().WaitIdle()
	var list struct {
		Dir      string `json:"dir"`
		Total    int64  `json:"total"`
		Captures []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Bytes int64  `json:"bytes"`
		} `json:"captures"`
	}
	if resp := getJSON(t, ts.URL+"/profiles", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /profiles: %d", resp.StatusCode)
	}
	if list.Total == 0 || len(list.Captures) == 0 {
		t.Fatalf("profile listing empty after trigger: %+v", list)
	}
	name := list.Captures[0].Name
	resp, err := http.Get(ts.URL + "/profiles/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /profiles/%s: %d", name, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("profile Content-Type = %q", ct)
	}
	buf := make([]byte, 4)
	if n, _ := resp.Body.Read(buf); n == 0 {
		t.Fatal("profile body empty")
	}
	// Traversal attempts are rejected, not served.
	if resp, err := http.Get(ts.URL + "/profiles/..%2fsecret"); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Fatal("path traversal served a profile")
		}
		resp.Body.Close()
	}

	// The ops page ships the engine panel.
	body, resp2 := scrape(t, ts.URL+"/cluster")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster: %d", resp2.StatusCode)
	}
	for _, want := range []string{"cluster/engine", "eng-entities", "eng-meta", "hm"} {
		if !strings.Contains(body, want) {
			t.Errorf("ops page missing %q", want)
		}
	}
}
