package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs each workload at 1/100 of its length, with
// the recorder and the layer replay on, and checks that the run is
// correct, loses nothing, and reports every metric BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			cfg := runConfig{W: w, Seed: 3, Seconds: 0.1, Trace: true, OutDir: out}
			res := runWorkload(cfg)
			if res.FailedIn != "" || !res.Correct {
				t.Fatalf("run failed in %q (correct=%v): %v; verdict %+v", res.FailedIn, res.Correct, res.Notes, res.Verdict)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d failed of %d attempted operations; verdict %+v", res.Failed, res.Attempted, res.Verdict)
			}
			if res.Verdict.Expected == 0 || res.Verdict.Delivered != res.Verdict.Expected {
				t.Errorf("delivered %d of %d expected results", res.Verdict.Delivered, res.Verdict.Expected)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.Name, v, ok)
				}
			}
			positive := []string{
				"stream.encode_ns_per_tuple", "stream.decode_ns_per_tuple", "stream.match_ns_per_tuple",
				"stream.wire_bytes_per_tuple", "dissemination.hop_ns_per_tuple", "dissemination.relayed_tuples",
				"dissemination.delivered_tuples", "simnet.send_ns_per_msg", "simnet.cpu_ns_per_msg",
				"simnet.deliver_us_p50", "simnet.bytes_total", "simnet.messages_total",
				"entity.ingest_ns_per_tuple", "entity.place_query_ms", "engine.ingest_ns_per_tuple",
				"core.publish_ns_per_tuple", "core.results_per_tuple", "core.result_latency_p50_ms", "core.result_latency_p90_ms",
				"core.submit_query_ms_p50", "core.remove_query_ms_p50",
				"coordinator.route_query_us", "harness.callback_ns", "harness.results_expected",
				"harness.oracle_s", "budget.attributed_ns_per_tuple",
			}
			if w.Name == "stateful_tail" {
				positive = append(positive, "operator.tail_ns_per_tuple", "operator.results_per_tuple", "budget.operator_ns")
			}
			for _, name := range positive {
				if res.Metrics[name] <= 0 {
					t.Errorf("per-layer metric %s = %v, want > 0", name, res.Metrics[name])
				}
			}
			for _, name := range []string{"dissemination.send_errors", "engine.dropped_tuples"} {
				if res.Metrics[name] != 0 {
					t.Errorf("%s = %v, want 0", name, res.Metrics[name])
				}
			}
			for name := range res.Metrics {
				if unitOf(name) == "" {
					t.Errorf("metric %s is printed but not declared with a unit", name)
				}
			}
			if n := res.Metrics["harness.replay_errors"]; n != 0 {
				t.Errorf("%v errors in the layer replay", n)
			}
			if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}

			// The two output forms: the human table carries every metric,
			// the last line exactly the contract's keys.
			var buf bytes.Buffer
			printRun(&buf, cfg, res)
			if err := printReport(&buf, res, true); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var rep map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
				t.Errorf("result line keys: %v", lines[len(lines)-1])
			}
			var ms map[string]metricValue
			if err := json.Unmarshal(rep["metrics"], &ms); err != nil || len(ms) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, want the %d per-layer ones (%v)", len(ms), len(perLayer), err)
			}
			if !strings.Contains(buf.String(), "tuples_per_s") || !strings.Contains(buf.String(), `"gomaxprocs"`) {
				t.Error("human output lacks the metric table or the environment stamp")
			}
		})
	}
}

// An untraced run sets the federation up several times over and measures
// on the last one.
func TestSmokeUntracedRebuildsTheFederation(t *testing.T) {
	w, _ := findWorkload("relay_fanout")
	res := runWorkload(runConfig{W: w, Seed: 4, Seconds: 0.1, OutDir: t.TempDir()})
	if res.FailedIn != "" || !res.Correct || res.Failed != 0 {
		t.Fatalf("run failed in %q (correct=%v, %d failed): %v; verdict %+v", res.FailedIn, res.Correct, res.Failed, res.Notes, res.Verdict)
	}
	for _, d := range endToEnd {
		if res.Metrics[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name])
		}
	}
}

func TestUntracedReportCarriesEndToEndMetricsOnly(t *testing.T) {
	res := runResult{Correct: true, Attempted: 10, Metrics: map[string]float64{"tuples_per_s": 5, "stream.encode_ns_per_tuple": 7}}
	var buf bytes.Buffer
	if err := printReport(&buf, res, false); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != len(endToEnd) || rep.Metrics["tuples_per_s"] != (metricValue{Value: 5, Unit: "tuples/s"}) {
		t.Errorf("report %+v", rep)
	}
	if _, leaked := rep.Metrics["stream.encode_ns_per_tuple"]; leaked {
		t.Error("per-layer metric in the untraced report")
	}
	if _, ok := rep.Metrics["setup_s"]; !ok {
		t.Error("setup_s missing")
	}
}
