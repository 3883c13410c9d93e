package latency

import (
	"time"

	"sspd/internal/trace"
)

// Attribution stage names. Each names the pipeline segment *ending* at
// the corresponding trace hop: a tuple is published, relayed through
// the dissemination tree, delivered into an entity, queued for the
// delegation processor, queued for an operator fragment, and finally
// evaluated into a result.
const (
	// StageDissemination is publish → first relay: time spent inside the
	// dissemination tree before the tuple starts crossing links.
	StageDissemination = "dissemination"
	// StageNetwork is relay → local delivery: link transit (the segment
	// simnet faults inflate).
	StageNetwork = "network"
	// StageIngest is delivery → delegation processor: the entity's ingest
	// queue.
	StageIngest = "ingest"
	// StageEngine is delegation → operator fragment: the engine's
	// per-fragment queue.
	StageEngine = "engine"
	// StageEval is operator → result: operator evaluation itself.
	StageEval = "eval"
)

// Stages lists the attribution stages in pipeline order.
var Stages = []string{StageDissemination, StageNetwork, StageIngest, StageEngine, StageEval}

// Breakdown is one completed span decomposed into per-stage wall-clock
// deltas. The deltas telescope: their sum equals E2E exactly (same
// monotonic clock reads, no re-measurement).
type Breakdown struct {
	// Query is the query the result belonged to (the terminal hop's node).
	Query string `json:"query"`
	// Stream is the span's source stream.
	Stream string `json:"stream"`
	// E2E is publish → result in seconds.
	E2E float64 `json:"e2e"`
	// Stage maps each Stages entry to its share of E2E in seconds.
	Stage map[string]float64 `json:"stage"`
}

// Decompose splits a span completed at hop (which must be a StageResult
// hop — portal hops re-announce a result already decomposed, and
// eviction finalizations have no terminal) into per-stage deltas.
//
// A span's hop list interleaves the fan-out of every query the tuple
// matched, so the chain feeding *this* result is recovered by a backward
// walk: the latest operator hop before the result, the latest delegate
// hop before that operator, and so on back to the publish hop. A stage
// with no hop on the chain (e.g. no relay on a loopback delivery)
// contributes a zero delta and its time flows into the next present
// segment, keeping the telescoping sum intact.
//
// Hops are stamped before they are appended, and the walk can anchor on
// a hop of another query's fan-out, so an anchor's time may fall before
// the previous anchor's or after the result's. Such an anchor is pulled
// into [previous anchor, result] — treated like a missing one — rather
// than having its negative delta cut to zero on its own, which would
// leave the neighbouring stage's matching surplus in and make the
// stages sum to more than E2E.
func Decompose(s trace.Span, hop int) (Breakdown, bool) {
	if hop < 0 || hop >= len(s.Hops) || s.Hops[hop].Stage != trace.StageResult {
		return Breakdown{}, false
	}
	if s.Hops[0].Stage != trace.StagePublish {
		return Breakdown{}, false
	}
	pub := s.Hops[0].At
	res := s.Hops[hop].At
	if res.Before(pub) {
		res = pub
	}

	// Backward walk: anchor each pipeline stage at the latest matching
	// hop before the previously anchored one.
	walk := []string{trace.StageOperator, trace.StageDelegate, trace.StageDeliver, trace.StageRelay}
	anchor := make(map[string]time.Time, len(walk))
	cur := hop
	for _, st := range walk {
		for i := cur - 1; i > 0; i-- {
			if s.Hops[i].Stage == st {
				anchor[st] = s.Hops[i].At
				cur = i
				break
			}
		}
	}

	// Fill forward: a missing anchor inherits the previous stage's time,
	// zeroing its delta without breaking the telescoping sum; a present
	// one moves time forward, never back and never past the result.
	prev := pub
	at := func(st string) time.Time {
		if t, ok := anchor[st]; ok && t.After(prev) {
			prev = t
			if prev.After(res) {
				prev = res
			}
		}
		return prev
	}
	relay := at(trace.StageRelay)
	deliver := at(trace.StageDeliver)
	delegate := at(trace.StageDelegate)
	operator := at(trace.StageOperator)

	d := func(from, to time.Time) float64 { return to.Sub(from).Seconds() }
	return Breakdown{
		Query:  s.Hops[hop].Node,
		Stream: s.Stream,
		E2E:    d(pub, res),
		Stage: map[string]float64{
			StageDissemination: d(pub, relay),
			StageNetwork:       d(relay, deliver),
			StageIngest:        d(deliver, delegate),
			StageEngine:        d(delegate, operator),
			StageEval:          d(operator, res),
		},
	}, true
}
