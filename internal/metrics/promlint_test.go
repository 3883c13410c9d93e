package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func parseStr(t *testing.T, text string) []PromFamily {
	t.Helper()
	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	return fams
}

func wantErr(t *testing.T, text, frag string) {
	t.Helper()
	_, err := ParsePrometheus(strings.NewReader(text))
	if err == nil {
		t.Fatalf("parse accepted %q, want error containing %q", text, frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", err, frag)
	}
}

func TestParsePrometheusWellFormed(t *testing.T) {
	fams := parseStr(t, `# HELP sspd_events_total Event count.
# TYPE sspd_events_total counter
sspd_events_total{event="join"} 4
sspd_events_total{event="split"} 1
# TYPE sspd_queries gauge
sspd_queries 7
# HELP sspd_delay_seconds Delay.
# TYPE sspd_delay_seconds summary
sspd_delay_seconds_count{query="q1"} 2
sspd_delay_seconds_sum{query="q1"} 4
sspd_delay_seconds{query="q1",quantile="0.5"} 1
`)
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Help != "Event count." || fams[0].Type != "counter" || len(fams[0].Samples) != 2 {
		t.Fatalf("bad first family: %+v", fams[0])
	}
	if fams[1].Help != "" {
		t.Fatalf("HELP leaked across families: %+v", fams[1])
	}
	s := fams[2].Samples[2]
	if s.Labels[1].Key != "quantile" || s.Value != 1 {
		t.Fatalf("bad summary sample: %+v", s)
	}
}

func TestParsePrometheusEscapes(t *testing.T) {
	fams := parseStr(t, "# TYPE sspd_escape_total counter\n"+
		`sspd_escape_total{v="a\"b\\c\nd"} 1`+"\n")
	if got := fams[0].Samples[0].Labels[0].Value; got != "a\"b\\c\nd" {
		t.Fatalf("escape round-trip failed: %q", got)
	}
}

func TestParsePrometheusRejections(t *testing.T) {
	wantErr(t, "sspd_orphan 1\n", "outside its family")
	wantErr(t, "# TYPE a_b counter\n# TYPE a_b counter\na_b 1\n", "duplicate family")
	wantErr(t, "# TYPE a_b counter\na_b 1\na_b 2\n", "duplicate series")
	wantErr(t, "# TYPE a_b counter\na_b{z=\"1\",a=\"2\"} 1\n", "not strictly ascending")
	wantErr(t, "# TYPE a_b counter\na_b{a=\"1\",a=\"2\"} 1\n", "not strictly ascending")
	wantErr(t, "# TYPE a_b counter\na_b{quantile=\"0.5\"} 1\n", "on a counter sample")
	wantErr(t, "# TYPE a_b counter\na_b{quantile=\"0.5\",a=\"x\"} 1\n", "not in last position")
	wantErr(t, "# TYPE a_b counter\na_b{a=\"1\"} one\n", "bad value")
	wantErr(t, "# TYPE a_b counter\na_b{a=\"1\" 1\n", "expected ',' or '}'")
	wantErr(t, "# TYPE a_b counter\na_b{a=\"1} 1\n", "unterminated")
	wantErr(t, "# TYPE a_b counter\na_b{a=\"\\q\"} 1\n", "bad escape")
	wantErr(t, "# TYPE a_b counter\na_b{} 1\n", "empty label block")
	wantErr(t, "# TYPE a_b counter\na_b 1 170000\n", "malformed value")
	wantErr(t, "# TYPE a_b frobnitz\na_b 1\n", "unknown metric type")
	wantErr(t, "# HELP a_b text\n# TYPE c_d counter\nc_d 1\n", "followed by TYPE for")
	wantErr(t, "# HELP a_b dangling\n", "not followed by its TYPE")
	wantErr(t, "# TYPE a_b counter\n9bad 1\n", "bad sample name")
	wantErr(t, "# TYPE a_b summary\nother_sum 1\n", "outside its family")
}

// TestRegistryOutputIsStrict round-trips a fully loaded registry through
// the strict parser: the writer must produce no duplicate families and
// keep label ordering stable.
func TestRegistryOutputIsStrict(t *testing.T) {
	r := NewRegistry()
	r.Counter("sspd_events_total", "Event count.", L("event", "join")).Add(4)
	r.Counter("sspd_events_total", "Event count.", L("event", "split")).Inc()
	r.Counter("sspd_escape_total", "", L("v", `a"b\c`)).Inc()
	r.RegisterCollector(func(emit func(Sample)) {
		EmitGauge(emit, "sspd_queries", "Active queries.", 7)
		EmitGauge(emit, "sspd_pr_max", "Worst PR.", 2.5)
		emit(Sample{Name: "sspd_delay_seconds", Help: "Delay.", Labels: []Label{L("query", "q1")},
			Hist: &HistSample{Bounds: []float64{1, 2}, Counts: []uint64{1, 0, 1}, Sum: 4}})
		emit(Sample{Name: "sspd_edge_cut", Help: "Edge cut.", Kind: KindGauge, Value: 12.5})
		emit(Sample{Name: "sspd_entity_up", Kind: KindGauge,
			Labels: []Label{L("entity", "e01")}, Value: 1})
		emit(Sample{Name: "sspd_entity_up", Kind: KindGauge,
			Labels: []Label{L("entity", "e00")}, Value: 1})
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("registry output rejected by strict parser: %v", err)
	}
	byName := make(map[string]PromFamily)
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["sspd_events_total"]; f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("counter family wrong: %+v", f)
	}
	if f := byName["sspd_pr_max"]; f.Type != "gauge" || f.Samples[0].Value != 2.5 {
		t.Fatalf("gauge family wrong: %+v", f)
	}
	if f := byName["sspd_delay_seconds"]; f.Type != "histogram" || len(f.Samples) != 5 {
		t.Fatalf("histogram family wrong: %+v", f)
	}
	if len(byName["sspd_entity_up"].Samples) != 2 {
		t.Fatalf("collector family wrong: %+v", byName["sspd_entity_up"])
	}
}
