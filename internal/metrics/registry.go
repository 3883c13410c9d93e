package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricKind classifies a registered metric family for exposition.
type MetricKind uint8

// Metric kinds. They map onto Prometheus text-format TYPE lines.
const (
	KindCounter MetricKind = iota
	KindGauge
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sample is one scrape-time value emitted by a Collector.
type Sample struct {
	// Name is the metric family name (e.g. "sspd_pr_max").
	Name string
	// Help is the family's HELP text (the first emitter's wins).
	Help string
	// Kind should be KindCounter or KindGauge; computed summaries are
	// not supported through collectors.
	Kind MetricKind
	// Labels distinguish this series within the family.
	Labels []Label
	// Value is the sample value. Ignored when Hist is set.
	Value float64
	// Hist, when non-nil, renders this sample as a full Prometheus
	// histogram series — cumulative `_bucket` lines with `le` labels,
	// `_sum`, and `_count` — instead of a single Value line. The family
	// is typed `histogram`; Kind is ignored.
	Hist *HistSample
}

// HistSample is the histogram payload of a collector Sample: a
// fixed-boundary bucketed distribution (the latency plane's mergeable
// log-bucket histograms expose through this).
type HistSample struct {
	// Bounds are the finite upper boundaries, ascending. The +Inf bucket
	// is implicit.
	Bounds []float64
	// Counts are per-bucket (non-cumulative) observation counts with the
	// +Inf bucket last; len(Counts) == len(Bounds)+1.
	Counts []uint64
	// Sum is the sum of all observed values.
	Sum float64
}

// Collector computes metrics at scrape time. Collectors let subsystems
// expose values derived from live state (PR ratios, edge cut, tree event
// counts) with zero hot-path cost: nothing is updated until a scrape
// calls the collector.
type Collector func(emit func(Sample))

// EmitGauge emits one gauge sample from inside a Collector.
func EmitGauge(emit func(Sample), name, help string, v float64, labels ...Label) {
	emit(Sample{Name: name, Help: help, Kind: KindGauge, Labels: labels, Value: v})
}

// EmitCounter emits one counter sample from inside a Collector.
func EmitCounter(emit func(Sample), name, help string, v float64, labels ...Label) {
	emit(Sample{Name: name, Help: help, Kind: KindCounter, Labels: labels, Value: v})
}

// Registry is a named, labeled metric registry with a lock-cheap hot
// path: its counters are atomics, so after a one-time get-or-create the
// recording side never touches the registry lock. Every other value —
// gauges, ratios, histograms — is computed at scrape time by a Collector.
// Exposition walks the registry under a read lock and renders Prometheus
// text format (version 0.0.4).
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []Collector
}

// family is one counter family.
type family struct {
	name string
	help string
	// series maps the canonical label signature to the counter.
	series map[string]*series
}

type series struct {
	labels  []Label
	counter *Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// signature canonicalizes a label set: sorted by key, rendered once.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// lookup returns the series for (name, labels), creating family and
// series as needed. It panics on an invalid name — a programmer error at
// wiring time, never data-driven.
func (r *Registry) lookup(name, help string, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Key, name))
		}
	}
	sig := signature(labels)

	r.mu.RLock()
	if fam := r.families[name]; fam != nil {
		if s, ok := fam.series[sig]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, series: make(map[string]*series)}
		r.families[name] = fam
	}
	s, ok := fam.series[sig]
	if !ok {
		sorted := make([]Label, len(labels))
		copy(sorted, labels)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		s = &series{labels: sorted, counter: &Counter{}}
		fam.series[sig] = s
	}
	return s
}

// Counter returns (creating on first use) the named counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, labels).counter
}

// RegisterCollector adds a scrape-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	if c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders {k="v",...} (empty string for no labels). extra
// is appended after the sorted labels (used for a bucket's le="...").
func renderLabels(labels []Label, extra ...Label) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	for _, l := range labels {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
		n++
	}
	for _, l := range extra {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
		n++
	}
	b.WriteByte('}')
	return b.String()
}

// expoFamily is one renderable family: header plus pre-rendered lines.
type expoFamily struct {
	name  string
	help  string
	typ   string
	lines []string
}

// WritePrometheus renders every registered metric and collector sample
// in Prometheus text exposition format 0.0.4, families sorted by name
// and series sorted by label signature within each family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.RUnlock()

	out := make(map[string]*expoFamily)
	get := func(name, help, typ string) *expoFamily {
		ef, ok := out[name]
		if !ok {
			ef = &expoFamily{name: name, help: help, typ: typ}
			out[name] = ef
		}
		return ef
	}

	for _, f := range fams {
		r.mu.RLock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		series := make([]*series, 0, len(sigs))
		for _, sig := range sigs {
			series = append(series, f.series[sig])
		}
		r.mu.RUnlock()

		ef := get(f.name, f.help, "counter")
		for _, s := range series {
			ef.lines = append(ef.lines, fmt.Sprintf("%s%s %d", f.name, renderLabels(s.labels), s.counter.Value()))
		}
	}

	// Collector samples merge into the same family map; a family name
	// emitted both statically and by a collector keeps the static HELP.
	for _, c := range collectors {
		c(func(s Sample) {
			if !validName(s.Name) {
				return
			}
			sorted := make([]Label, len(s.Labels))
			copy(sorted, s.Labels)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
			if s.Hist != nil {
				if len(s.Hist.Counts) != len(s.Hist.Bounds)+1 {
					return
				}
				ef := get(s.Name, s.Help, "histogram")
				var cum uint64
				for i, b := range s.Hist.Bounds {
					cum += s.Hist.Counts[i]
					ef.lines = append(ef.lines, fmt.Sprintf("%s_bucket%s %d", s.Name,
						renderLabels(sorted, L("le", formatValue(b))), cum))
				}
				cum += s.Hist.Counts[len(s.Hist.Bounds)]
				ef.lines = append(ef.lines, fmt.Sprintf("%s_bucket%s %d", s.Name,
					renderLabels(sorted, L("le", "+Inf")), cum))
				ef.lines = append(ef.lines, fmt.Sprintf("%s_sum%s %s", s.Name,
					renderLabels(sorted), formatValue(s.Hist.Sum)))
				ef.lines = append(ef.lines, fmt.Sprintf("%s_count%s %d", s.Name,
					renderLabels(sorted), cum))
				return
			}
			ef := get(s.Name, s.Help, s.Kind.String())
			ef.lines = append(ef.lines, fmt.Sprintf("%s%s %s", s.Name, renderLabels(sorted), formatValue(s.Value)))
		})
	}

	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ef := out[name]
		if ef.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ef.name, escapeHelp(ef.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ef.name, ef.typ); err != nil {
			return err
		}
		sort.Strings(ef.lines)
		for _, line := range ef.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
