package latency

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO rules are declarative invariants over the attribution plane,
// written as "<metric> < <bound>":
//
//	p99_end_to_end < 250ms        // windowed e2e quantile (any pNN)
//	stage_share(network) < 60%    // windowed share of e2e time in a stage
//	drop_rate < 1%                // windowed engine dropped/offered ratio
//	ring_occupancy_p99 < 75%      // windowed p99 shard-ring occupancy
//
// Bounds accept Go duration syntax (250ms, 1.5s), percentages (60%),
// and bare numbers. Every rule is evaluated over the *window* between
// consecutive watchdog ticks — cumulative histograms are differenced
// first, and the engine fractions arrive already windowed — so a breach
// clears once the offending traffic stops, instead of being pinned
// forever by history.
type Rule struct {
	// Raw is the rule as written; it is the rule's identity in journal
	// events and metrics labels.
	Raw string `json:"raw"`
	// Kind is one of "quantile_e2e", "stage_share", "drop_rate",
	// "ring_occupancy_p99".
	Kind string `json:"kind"`
	// Q is the quantile in [0,1] for quantile_e2e rules.
	Q float64 `json:"q,omitempty"`
	// Stage is the attribution stage for stage_share rules.
	Stage string `json:"stage,omitempty"`
	// Bound is the exclusive upper bound (seconds, ratio, or fraction).
	Bound float64 `json:"bound"`
}

const (
	RuleQuantileE2E = "quantile_e2e"
	RuleStageShare  = "stage_share"
	// RuleDropRate and RuleRingOcc are the backpressure watchdog's rule
	// kinds (DESIGN.md §14): windowed engine drop rate and windowed p99
	// ring occupancy, both fractions fed via Observation's engine fields.
	RuleDropRate = "drop_rate"
	RuleRingOcc  = "ring_occupancy_p99"
)

// ParseRule parses one rule line.
func ParseRule(s string) (Rule, error) {
	raw := strings.TrimSpace(s)
	lhs, rhs, ok := strings.Cut(raw, "<")
	if !ok {
		return Rule{}, fmt.Errorf("latency: rule %q: want \"<metric> < <bound>\"", raw)
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	bound, err := parseBound(rhs)
	if err != nil {
		return Rule{}, fmt.Errorf("latency: rule %q: bad bound %q: %w", raw, rhs, err)
	}
	if bound <= 0 {
		return Rule{}, fmt.Errorf("latency: rule %q: bound must be positive", raw)
	}
	r := Rule{Raw: raw, Bound: bound}
	switch {
	case lhs == "drop_rate":
		r.Kind = RuleDropRate
	case lhs == "ring_occupancy_p99":
		r.Kind = RuleRingOcc
	case strings.HasPrefix(lhs, "stage_share(") && strings.HasSuffix(lhs, ")"):
		r.Kind = RuleStageShare
		r.Stage = strings.TrimSuffix(strings.TrimPrefix(lhs, "stage_share("), ")")
		if !validStage(r.Stage) {
			return Rule{}, fmt.Errorf("latency: rule %q: unknown stage %q (want one of %s)",
				raw, r.Stage, strings.Join(Stages, ", "))
		}
	case strings.HasPrefix(lhs, "p") && strings.HasSuffix(lhs, "_end_to_end"):
		pct, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(lhs, "p"), "_end_to_end"), 64)
		if err != nil || pct <= 0 || pct > 100 {
			return Rule{}, fmt.Errorf("latency: rule %q: bad quantile %q", raw, lhs)
		}
		r.Kind = RuleQuantileE2E
		r.Q = pct / 100
	default:
		return Rule{}, fmt.Errorf("latency: rule %q: unknown metric %q", raw, lhs)
	}
	return r, nil
}

// ParseRules parses a rule set, rejecting duplicates.
func ParseRules(lines []string) ([]Rule, error) {
	out := make([]Rule, 0, len(lines))
	seen := make(map[string]bool, len(lines))
	for _, l := range lines {
		if strings.TrimSpace(l) == "" {
			continue
		}
		r, err := ParseRule(l)
		if err != nil {
			return nil, err
		}
		if seen[r.Raw] {
			return nil, fmt.Errorf("latency: duplicate rule %q", r.Raw)
		}
		seen[r.Raw] = true
		out = append(out, r)
	}
	return out, nil
}

func validStage(s string) bool {
	for _, st := range Stages {
		if s == st {
			return true
		}
	}
	return false
}

func parseBound(s string) (float64, error) {
	if v, ok := strings.CutSuffix(s, "%"); ok {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		return f / 100, err
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Observation is one watchdog evaluation input: the current
// *cumulative* cluster attribution state.
type Observation struct {
	E2E    HistSnapshot
	Stages map[string]HistSnapshot

	// DropRate and RingOccP99 are the backpressure watchdog's inputs:
	// already-windowed fractions (the engine plane differences its own
	// cumulative counters between ticks). EngineWindow marks them valid —
	// false holds the previous state of drop_rate / ring_occupancy_p99
	// rules, exactly like an empty histogram window.
	DropRate     float64
	RingOccP99   float64
	EngineWindow bool
}

// Verdict is one rule's state after a watchdog tick.
type Verdict struct {
	Rule Rule `json:"rule"`
	// Value is the measured quantity this window (NaN when not
	// evaluated).
	Value float64 `json:"value"`
	// Breached reports the rule's current state.
	Breached bool `json:"breached"`
	// Transition is set on the tick the state flipped — the edge on
	// which slo.breach / slo.clear events are emitted.
	Transition bool `json:"transition,omitempty"`
	// Evaluated is false when the window carried no traffic for this
	// rule's metric; the previous state is held.
	Evaluated bool `json:"evaluated"`
}

// Watchdog evaluates a rule set against successive cumulative
// observations, differencing histograms between ticks so quantile and
// share rules see only the traffic of the last window. Safe for
// concurrent use.
type Watchdog struct {
	mu        sync.Mutex
	rules     []Rule
	prevE2E   HistSnapshot
	prevStage map[string]HistSnapshot
	state     map[string]bool
}

// NewWatchdog returns a watchdog over the given rules; every rule
// starts un-breached.
func NewWatchdog(rules []Rule) *Watchdog {
	return &Watchdog{
		rules:     append([]Rule(nil), rules...),
		prevStage: make(map[string]HistSnapshot),
		state:     make(map[string]bool),
	}
}

// Eval runs one watchdog tick and returns a verdict per rule, in rule
// order.
func (w *Watchdog) Eval(o Observation) []Verdict {
	w.mu.Lock()
	defer w.mu.Unlock()

	winE2E := o.E2E.Sub(w.prevE2E)
	w.prevE2E = o.E2E
	winStage := make(map[string]HistSnapshot, len(o.Stages))
	var stageTotal float64
	for st, cur := range o.Stages {
		win := cur.Sub(w.prevStage[st])
		w.prevStage[st] = cur
		winStage[st] = win
		stageTotal += win.Sum
	}

	out := make([]Verdict, 0, len(w.rules))
	for _, r := range w.rules {
		v := Verdict{Rule: r, Value: math.NaN()}
		switch r.Kind {
		case RuleQuantileE2E:
			if winE2E.Count > 0 {
				v.Value = winE2E.Quantile(r.Q)
				v.Evaluated = true
			}
		case RuleStageShare:
			if stageTotal > 0 {
				v.Value = winStage[r.Stage].Sum / stageTotal
				v.Evaluated = true
			}
		case RuleDropRate:
			if o.EngineWindow {
				v.Value = o.DropRate
				v.Evaluated = true
			}
		case RuleRingOcc:
			if o.EngineWindow {
				v.Value = o.RingOccP99
				v.Evaluated = true
			}
		}
		prev := w.state[r.Raw]
		if v.Evaluated {
			v.Breached = v.Value >= r.Bound
			v.Transition = v.Breached != prev
			w.state[r.Raw] = v.Breached
		} else {
			v.Breached = prev
		}
		out = append(out, v)
	}
	return out
}
