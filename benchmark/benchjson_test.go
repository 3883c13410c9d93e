package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json, the contract the driver
// reads. The harness's own tables are the source of truth; running the
// tests with UPDATE_BENCHMARK_JSON=1 rewrites the file from them.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(d metricDef) string {
	if d.Lower {
		return "lower"
	}
	return "higher"
}

func wantBenchmarkJSON() benchmarkJSON {
	want := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, jsonWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, jsonMetric{Name: d.Name, Unit: d.Unit, Better: better(d), Bound: &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, jsonMetric{Name: d.Name, Unit: d.Unit, Better: better(d)})
	}
	return want
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date with the harness's metric and workload tables; rerun with UPDATE_BENCHMARK_JSON=1", path)
	}
}

func TestBenchmarkJSONLimits(t *testing.T) {
	b := wantBenchmarkJSON()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v must be in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
}
