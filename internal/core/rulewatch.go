package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sspd/internal/latency"
	"sspd/internal/metrics"
	"sspd/internal/obslog"
)

// ruleNames is what distinguishes one watchdog plane's rule bookkeeping
// from the other's: the journal event pair and the two metric families.
type ruleNames struct {
	breachKind, breachMsg  string // journaled (Warn) on the breach edge
	clearKind, clearMsg    string // journaled (Info) on the recovery edge
	stateMetric, stateHelp string // gauge{rule}: 1 while in breach
	totalMetric, totalHelp string // counter{rule}: breach transitions
}

// ruleWatch is the rule bookkeeping both watchdog planes hold: the
// windowed watchdog, its last verdicts, per-rule state and breach
// counts, transition journaling, and the per-rule metric rendering.
type ruleWatch struct {
	watchdog *latency.Watchdog
	log      *obslog.Logger
	names    ruleNames
	// evals counts verdict passes (one per digest period when the stats
	// plane clocks the watchdog).
	evals atomic.Int64

	mu       sync.Mutex
	verdicts []latency.Verdict // last evaluation, in rule order
	state    map[string]bool   // rule → currently breached
	breaches map[string]int64  // rule → breach transitions
}

// newRuleWatch watches the shipped rule lines; a line that does not parse
// is a bug in the constant, not a runtime condition.
func newRuleWatch(lines []string, log *obslog.Logger, names ruleNames) *ruleWatch {
	rules, err := latency.ParseRules(lines)
	if err != nil {
		panic(err)
	}
	w := &ruleWatch{
		watchdog: latency.NewWatchdog(rules),
		log:      log,
		names:    names,
		state:    make(map[string]bool, len(rules)),
		breaches: make(map[string]int64, len(rules)),
	}
	for _, r := range rules {
		w.state[r.Raw] = false
		w.breaches[r.Raw] = 0
	}
	return w
}

// eval runs one verdict pass over the observation, records it, and
// journals every state transition.
func (w *ruleWatch) eval(o latency.Observation) []latency.Verdict {
	w.evals.Add(1)
	vs := w.watchdog.Eval(o)
	w.mu.Lock()
	w.verdicts = vs
	for _, v := range vs {
		// An unevaluated rule's verdict carries its held state.
		w.state[v.Rule.Raw] = v.Breached
		if v.Transition && v.Breached {
			w.breaches[v.Rule.Raw]++
		}
	}
	w.mu.Unlock()
	for _, v := range vs {
		if !v.Transition {
			continue
		}
		value := fmt.Sprintf("%.6g", v.Value)
		if v.Breached {
			w.log.Warn(w.names.breachKind, "", w.names.breachMsg, "rule", v.Rule.Raw, "value", value)
		} else {
			w.log.Info(w.names.clearKind, "", w.names.clearMsg, "rule", v.Rule.Raw, "value", value)
		}
	}
	return vs
}

// status returns the last evaluation's verdicts and whether any rule is
// in breach.
func (w *ruleWatch) status() (verdicts []latency.Verdict, breached bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, b := range w.state {
		breached = breached || b
	}
	return append([]latency.Verdict(nil), w.verdicts...), breached
}

// collect renders the per-rule state gauge and transition counter (the
// registry orders series at render time).
func (w *ruleWatch) collect(emit func(metrics.Sample)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for r, breached := range w.state {
		lr := metrics.L("rule", r)
		metrics.EmitGauge(emit, w.names.stateMetric, w.names.stateHelp, b2f(breached), lr)
		metrics.EmitCounter(emit, w.names.totalMetric, w.names.totalHelp, float64(w.breaches[r]), lr)
	}
}
