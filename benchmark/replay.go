package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"sspd"
	"sspd/internal/coordinator"
	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/operator"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// The layer replay feeds the run's own batches and query specs straight
// into each layer's exported entry point, one span per call, all under
// one replay root. It yields each layer's cost per unit of its work; the
// budget multiplies those by the units the end-to-end run counted.

// loopNet is the replay's transport: it delivers synchronously on the
// sender's goroutine, or not at all for the kinds in drop, and meters
// nothing, so what a layer costs over it is the layer's own work.
type loopNet struct {
	mu       sync.RWMutex
	handlers map[simnet.NodeID]simnet.Handler
	drop     map[string]bool
	traffic  *simnet.Traffic
}

func newLoopNet(dropKinds ...string) *loopNet {
	n := &loopNet{handlers: make(map[simnet.NodeID]simnet.Handler), drop: make(map[string]bool), traffic: simnet.NewTraffic()}
	for _, k := range dropKinds {
		n.drop[k] = true
	}
	return n
}

func (n *loopNet) Register(id simnet.NodeID, h simnet.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[id]; dup {
		return fmt.Errorf("loopnet: %q already registered", id)
	}
	n.handlers[id] = h
	return nil
}

func (n *loopNet) Deregister(id simnet.NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
	return nil
}

func (n *loopNet) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	if n.drop[kind] {
		return nil
	}
	n.mu.RLock()
	h := n.handlers[to]
	n.mu.RUnlock()
	if h == nil {
		return simnet.ErrUnknownNode{ID: to}
	}
	h(simnet.Message{From: from, To: to, Kind: kind, Payload: payload})
	return nil
}

func (n *loopNet) Traffic() *simnet.Traffic { return n.traffic }
func (n *loopNet) Close() error             { return nil }

// nopEngine is the replay's Processor: it accepts everything and does
// nothing, so Entity.IngestBatch over it costs only the entity layer.
type nopEngine struct {
	name string
	mu   sync.Mutex
	ids  map[string]engine.QuerySpec
}

func (e *nopEngine) EngineName() string { return e.name }
func (e *nopEngine) Register(spec engine.QuerySpec, _ func(stream.Tuple)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ids[spec.ID] = spec
	return nil
}
func (e *nopEngine) Unregister(id string) (engine.QuerySpec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	spec := e.ids[id]
	delete(e.ids, id)
	return spec, nil
}
func (e *nopEngine) Ingest(stream.Tuple) {}
func (e *nopEngine) QueryIDs() []string  { return nil }
func (e *nopEngine) Load() float64       { return 0 }
func (e *nopEngine) Close()              {}
func (e *nopEngine) FeedQuery(string, stream.Tuple) error {
	return nil
}
func (e *nopEngine) FeedQueryBatch(string, stream.Batch) error {
	return nil
}

// replayer times calls into one layer at a time.
type replayer struct {
	rec  *recorder
	root int32
	// each is how long one layer is replayed for: 3 % of the run's
	// length, at most 300 ms.
	each time.Duration
}

// cost is what a replayed layer spent per unit of work: wall time of the
// calls, and process CPU time (which also counts the goroutines the
// layer hands work to).
type cost struct{ wallNs, cpuNs float64 }

// replayChunk is how many calls share one span: a span per call would
// cost a clock read pair per few hundred nanoseconds of work and a trace
// file of hundreds of megabytes.
const replayChunk = 16

// layer calls fn(i) with i counting up until the layer's time is used,
// records one span per replayChunk calls, and divides by the units fn
// reports.
func (r *replayer) layer(name string, fn func(i int) (units int)) cost {
	parent := r.rec.open("replay."+name, r.root, time.Now())
	var wall time.Duration
	units := 0
	cpu0, begin := processCPU(), time.Now()
	for i := 0; i < 64 || time.Since(begin) < r.each; i += replayChunk {
		t0 := time.Now()
		for c := 0; c < replayChunk; c++ {
			units += fn(i + c)
		}
		t1 := time.Now()
		wall += t1.Sub(t0)
		r.rec.add(name, parent, t0, t1)
	}
	cpu := processCPU() - cpu0
	r.rec.close(parent, time.Now())
	if units == 0 {
		return cost{}
	}
	return cost{wallNs: float64(wall.Nanoseconds()) / float64(units), cpuNs: float64(cpu.Nanoseconds()) / float64(units)}
}

// localInterests groups the placed queries' interests by entity.
func localInterests(fx *fixture, specs []placedSpec, sc *stream.Schema) map[string]*stream.InterestSet {
	out := make(map[string]*stream.InterestSet)
	for i, ps := range specs {
		e := fx.entityOf[i]
		if out[e] == nil {
			out[e] = stream.NewInterestSet("quotes")
		}
		out[e].Add(ps.Spec.Interest("quotes", sc))
	}
	return out
}

func entityOfRelay(id simnet.NodeID) string {
	s := string(id)
	for i := range s {
		if s[i] == ':' {
			return s[:i]
		}
	}
	return s
}

// layerReplay fills the per-layer timing metrics and the budget.
func layerReplay(cfg runConfig, fx *fixture, gen *pool, specs []placedSpec, rec *recorder, m map[string]float64, published float64) {
	w := cfg.W
	sc, _ := fx.catalog.Lookup("quotes")
	r := &replayer{rec: rec, each: min(time.Duration(cfg.Seconds*0.03*float64(time.Second)), 300*time.Millisecond)}
	r.root = rec.open("replay", -1, time.Now())
	defer func() { rec.close(r.root, time.Now()) }()
	// A replay step that cannot be set up leaves its metrics at 0 and is
	// counted here; the smoke test holds the count at 0.
	failed := func() { m["harness.replay_errors"]++ }

	batches := gen.batches[:min(len(gen.batches), 512)]
	payloads := make([][]byte, len(batches))
	wire := 0
	for i, b := range batches {
		payloads[i] = stream.AppendBatch(nil, b)
		wire += len(payloads[i])
	}
	m["stream.wire_bytes_per_tuple"] = float64(wire) / float64(len(batches)*batchSize)

	// stream: pooled encode and decode of the run's batches.
	enc := r.layer("stream.encode", func(i int) int {
		buf := stream.GetEncodeBuffer()
		*buf = stream.AppendBatch((*buf)[:0], batches[i%len(batches)])
		stream.PutEncodeBuffer(buf)
		return batchSize
	})
	dec := r.layer("stream.decode", func(i int) int {
		db := stream.GetDecodeBuffer()
		_, _, _ = db.Decode(payloads[i%len(payloads)]) // encoded above; cannot fail
		stream.PutDecodeBuffer(db)
		return batchSize
	})
	m["stream.encode_ns_per_tuple"] = enc.wallNs
	m["stream.decode_ns_per_tuple"] = dec.wallNs

	// The relay with the most children does the matching and splitting:
	// the source in a star, the first entity in a chain.
	tree := fx.fed.DisseminationTree("quotes")
	nodes := append([]simnet.NodeID{tree.Source()}, tree.Members()...)
	hub := nodes[0]
	interior := 0
	for _, n := range nodes {
		kids := len(tree.Children(n))
		if kids > len(tree.Children(hub)) {
			hub = n
		}
		if kids > 0 && n != tree.Source() {
			interior++
		}
	}
	locals := localInterests(fx, specs, sc)

	// dissemination: every relay of the real tree on the loop transport,
	// which carries interest registrations but drops tuples, so only the
	// hub's own hop is timed.
	net := newLoopNet(dissemination.KindTuples)
	relays := make(map[simnet.NodeID]*dissemination.Relay, len(nodes))
	for _, n := range nodes {
		rl, err := dissemination.NewRelayWith(tree, n, sc, net, nil,
			dissemination.RelayOptions{DeliverBatch: func(stream.Batch) {}})
		if err != nil {
			failed()
			return
		}
		relays[n] = rl
		defer rl.Close()
	}
	for _, n := range tree.Members() {
		if set := locals[entityOfRelay(n)]; set != nil {
			if err := relays[n].SetLocalInterest(set.Terms); err != nil {
				failed()
			}
		}
	}
	hubRelay := relays[hub]
	hop := r.layer("dissemination.hop", func(i int) int {
		if hub == tree.Source() {
			_ = hubRelay.Publish(batches[i%len(batches)]) // hub is the source; cannot fail
		} else {
			hubRelay.HandleTuples(payloads[i%len(payloads)])
		}
		return batchSize
	})
	m["dissemination.hop_ns_per_tuple"] = hop.wallNs
	hubIn := float64(hubRelay.Relayed.Value() + hubRelay.Suppressed.Value())
	hubReencodeShare := 0.0
	if kids := float64(len(tree.Children(hub))); kids > 0 && hubIn > 0 {
		hubIn /= kids
		hubReencodeShare = float64(hubRelay.Relayed.Value()) / hubIn
	}

	// stream.match: the compiled sets the hub evaluates per tuple — its
	// own and each child's aggregate, rebuilt the way relays aggregate
	// (children's terms added to the local ones, simplified to the
	// registration bound).
	var aggregate func(n simnet.NodeID) *stream.InterestSet
	aggregate = func(n simnet.NodeID) *stream.InterestSet {
		agg := stream.NewInterestSet("quotes")
		if set := locals[entityOfRelay(n)]; set != nil && n != tree.Source() {
			agg = set.Clone()
		}
		kids := tree.Children(n)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		for _, k := range kids {
			for _, term := range aggregate(k).Terms {
				agg.Add(term)
			}
		}
		agg.Simplify(sc, dissemination.DefaultMaxInterestTerms)
		return agg
	}
	var sets []*stream.CompiledSet
	if set := locals[entityOfRelay(hub)]; set != nil && hub != tree.Source() {
		sets = append(sets, stream.CompileSet(set, sc))
	}
	for _, k := range tree.Children(hub) {
		sets = append(sets, stream.CompileSet(aggregate(k), sc))
	}
	// The busiest entity's own set is the largest in the workload (one
	// term per hosted query, never simplified); it is matched once per
	// tuple the entity's relay receives.
	busiest, busiestN := "", 0
	for e, set := range locals {
		if len(set.Terms) > busiestN || (len(set.Terms) == busiestN && e < busiest) {
			busiest, busiestN = e, len(set.Terms)
		}
	}
	busiestSet := stream.CompileSet(locals[busiest], sc)
	sets = append(sets, busiestSet)
	matched := 0 // kept so that the calls below have a use
	match := r.layer("stream.match", func(i int) int {
		b := batches[i%len(batches)]
		for _, set := range sets {
			for j := range b {
				if set.Matches(b[j]) {
					matched++
				}
			}
		}
		return batchSize * len(sets)
	})
	m["stream.match_ns_per_tuple"] = match.wallNs

	// simnet: one message at a time on the workload's transport, the
	// size of an average batch payload.
	sendNs, sendCPU, deliverUs := replayTransport(r, w.TCP, wire/len(batches))
	m["simnet.send_ns_per_msg"] = sendNs
	m["simnet.cpu_ns_per_msg"] = sendCPU
	m["simnet.deliver_us_p50"] = deliverUs

	// What the busiest entity's relay hands over: the tuples its local
	// set matches.
	var delivered []stream.Batch
	for _, b := range batches {
		var sub stream.Batch
		for j := range b {
			if busiestSet.Matches(b[j]) {
				sub = append(sub, b[j])
			}
		}
		if len(sub) > 0 {
			delivered = append(delivered, sub)
		}
	}
	var hosted []engine.QuerySpec
	for i, ps := range specs {
		if fx.entityOf[i] == busiest {
			hosted = append(hosted, ps.Spec)
		}
	}
	if len(delivered) == 0 || len(hosted) == 0 {
		return
	}

	// entity: delegation fan-out with the busiest entity's placements
	// over engines that do nothing.
	ent, err := entity.New("replay", newLoopNet(), fx.catalog, w.Procs,
		func(name string, _ *stream.Catalog) engine.Processor {
			return &nopEngine{name: name, ids: make(map[string]engine.QuerySpec)}
		})
	if err != nil {
		failed()
		return
	}
	defer ent.Close()
	placeStart := time.Now()
	for _, spec := range hosted {
		if err := ent.PlaceQuery(spec, 1); err != nil {
			failed()
		}
	}
	placeEnd := time.Now()
	rec.add("entity.place_query", r.root, placeStart, placeEnd)
	m["entity.place_query_ms"] = float64(placeEnd.Sub(placeStart).Nanoseconds()) / 1e6 / float64(len(hosted))
	ingest := r.layer("entity.ingest", func(i int) int {
		b := delivered[i%len(delivered)]
		ent.IngestBatch(b)
		return len(b)
	})
	m["entity.ingest_ns_per_tuple"] = ingest.wallNs

	// engine: the workload's engine kind with the same queries, stateful
	// tails stripped, fed one addressed batch per hosted query the way
	// the entity's fan-out feeds it; CPU time, because the engines work
	// on their own goroutines.
	var eng interface {
		engine.Processor
		engine.BatchFeeder
		Drain(time.Duration) bool
	}
	if w.Engine == "shard" {
		eng = engine.NewShard("replay", fx.catalog, 0)
	} else {
		eng = engine.New("replay", fx.catalog)
	}
	defer eng.Close()
	for _, spec := range hosted {
		spec.Agg, spec.TopK, spec.Distinct = nil, nil, nil
		if err := eng.Register(spec, nil); err != nil {
			failed()
		}
	}
	// Both engines shed load when a query's queue (1024 tuples) or a
	// shard's ring (1024 batches) is full, so the feed pauses to drain
	// well before either; draining more often than that would mostly
	// measure the drain's own polling.
	fedTuples, fedBatches := 0, 0
	engCost := r.layer("engine.ingest", func(i int) int {
		b := delivered[i%len(delivered)]
		for _, spec := range hosted {
			_ = eng.FeedQueryBatch(spec.ID, b) // registered above; cannot fail
		}
		fedTuples += len(b)
		fedBatches += len(hosted)
		if fedTuples >= 512 || fedBatches >= 512 {
			eng.Drain(time.Second)
			fedTuples, fedBatches = 0, 0
		}
		return len(b)
	})
	eng.Drain(time.Second)
	m["engine.ingest_ns_per_tuple"] = engCost.cpuNs

	// operator: each stateful tail over the tuples its filters pass.
	tailNs, tailIn, tailOut, tailPerTuple := replayTails(r, specs, batches, sc)
	m["operator.tail_ns_per_tuple"] = tailNs
	if tailIn > 0 {
		m["operator.results_per_tuple"] = tailOut / tailIn
	}

	// coordinator: routing one query down the workload's tree.
	ct := coordinator.NewTree(3)
	for i := 0; i < w.Entities; i++ {
		if _, err := ct.Join(coordinator.MemberID(entityName(i)), entityPos(i)); err != nil {
			failed()
		}
	}
	route := r.layer("coordinator.route_query", func(i int) int {
		for j := 0; j < 64; j++ {
			_, _, _ = ct.RouteQuery(entityPos((i+j)%w.Entities), func(coordinator.MemberID) float64 { return 0 })
		}
		return 64
	})
	m["coordinator.route_query_us"] = route.wallNs / 1e3

	// harness: the result callback itself.
	cb := newCollector(&expectation{PerQuery: make([]queryExpect, 1)}, len(batches)*batchSize)
	handler := cb.callback(0)
	call := r.layer("harness.callback", func(i int) int {
		b := batches[i%len(batches)]
		for j := range b {
			handler(b[j])
		}
		return batchSize
	})
	m["harness.callback_ns"] = call.wallNs

	// Budget: cost per unit × units per published tuple, the units taken
	// from what the end-to-end run counted.
	hops := m["dissemination.relayed_tuples"] / published
	deliveredShare := m["dissemination.delivered_tuples"] / published
	matchEvals := (2*m["dissemination.relayed_tuples"] + m["dissemination.suppressed_tuples"]) / published
	streamNs := dec.wallNs*hops + match.wallNs*matchEvals + enc.wallNs*hops
	// The hub's hop minus the stream work inside it is the relay's own
	// cost: locking, fan-out hand-off, cloning, counters.
	hubStream := match.wallNs*float64(len(sets)-1) + enc.wallNs*hubReencodeShare
	if hub != tree.Source() {
		hubStream += dec.wallNs
	}
	forwarders := 1 + hops*float64(interior)/float64(max(len(tree.Members()), 1))
	dissNs := max(0, hop.wallNs-hubStream) * forwarders
	simnetNs := sendCPU * m["simnet.messages_total"] / published
	entityNs := ingest.wallNs * deliveredShare
	engineNs := engCost.cpuNs * deliveredShare
	operatorNs := tailNs * tailPerTuple
	harnessNs := call.wallNs * m["core.results_per_tuple"]
	m["budget.stream_ns"] = streamNs
	m["budget.dissemination_ns"] = dissNs
	m["budget.simnet_ns"] = simnetNs
	m["budget.entity_ns"] = entityNs
	m["budget.engine_ns"] = engineNs
	m["budget.operator_ns"] = operatorNs
	m["budget.harness_ns"] = harnessNs
	attributed := streamNs + dissNs + simnetNs + entityNs + engineNs + operatorNs + harnessNs
	m["budget.attributed_ns_per_tuple"] = attributed
	if cpu := m["cpu_ns_per_tuple"]; cpu > 0 {
		m["budget.unattributed_frac"] = 1 - attributed/cpu
	}
	_ = matched
}

// replayTransport sends messages one at a time between two endpoints of
// the workload's transport kind. It reports the time the sender spent in
// Send, the process CPU per message (both ends), and the median time
// from calling Send to the handler being entered.
func replayTransport(r *replayer, tcp bool, payloadBytes int) (sendNs, cpuNs, deliverUsP50 float64) {
	var tr sspd.Transport
	if tcp {
		tr = sspd.NewTCPNet()
	} else {
		tr = sspd.NewSimNet(nil)
	}
	defer tr.Close()
	arrived := make(chan int64, 1)
	if err := tr.Register("replay/a", func(simnet.Message) {}); err != nil {
		return 0, 0, 0
	}
	if err := tr.Register("replay/b", func(m simnet.Message) {
		sent := int64(binary.LittleEndian.Uint64(m.Payload))
		arrived <- time.Now().UnixNano() - sent
	}); err != nil {
		return 0, 0, 0
	}
	payload := make([]byte, max(payloadBytes, 8))
	var deliver []float64
	c := r.layer("simnet.send", func(int) int {
		binary.LittleEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		if err := tr.Send("replay/a", "replay/b", dissemination.KindTuples, payload); err != nil {
			return 0
		}
		deliver = append(deliver, float64(<-arrived)/1e3)
		return 1
	})
	sort.Float64s(deliver)
	// The span covers Send plus the wait for the handler; the sender's
	// own share is what is left after the delivery time.
	p50 := percentile(deliver, 0.5)
	return max(0, c.wallNs-p50*1e3), c.cpuNs, p50
}

// replayTails runs each stateful query's terminal operator over the pool
// tuples its filters pass. It returns the mean cost per operator input,
// the inputs and outputs seen, and how many operator inputs one
// published tuple causes across the whole query population.
func replayTails(r *replayer, specs []placedSpec, batches []stream.Batch, sc *stream.Schema) (ns, in, out, perTuple float64) {
	type tail struct {
		op    operator.Operator
		input []stream.Tuple
	}
	var tails []tail
	total := float64(len(batches) * batchSize)
	for _, ps := range specs {
		spec := ps.Spec
		if stateless(spec) {
			continue
		}
		var op operator.Operator
		var err error
		switch {
		case spec.Agg != nil:
			op, err = operator.NewAggregate(spec.ID, sc, spec.Agg.Fn, spec.Agg.ValueField, spec.Agg.GroupField, spec.Agg.Window, spec.Agg.Cost)
		case spec.TopK != nil:
			op, err = operator.NewTopK(spec.ID, sc, spec.TopK.K, spec.TopK.ValueField, spec.TopK.KeyField, spec.TopK.Window, spec.TopK.Cost)
		case spec.Distinct != nil:
			op, err = operator.NewDistinct(spec.ID, sc, spec.Distinct.Field, spec.Distinct.Window, spec.Distinct.Cost)
		}
		preds, perr := compilePlain(spec, sc)
		if err != nil || perr != nil || op == nil {
			continue
		}
		t := tail{op: op}
		for _, b := range batches {
			for j := range b {
				pass := true
				for _, p := range preds {
					pass = pass && p.holds(b[j].Values)
				}
				if pass {
					t.input = append(t.input, b[j])
				}
			}
		}
		perTuple += float64(len(t.input)) / total
		tails = append(tails, t)
	}
	if len(tails) == 0 {
		return 0, 0, 0, 0
	}
	pos := make([]int, len(tails))
	c := r.layer("operator.tail", func(i int) int {
		ti := i % len(tails)
		t := &tails[ti]
		n := min(batchSize, len(t.input))
		for j := 0; j < n; j++ {
			out += float64(len(t.op.Process(0, t.input[(pos[ti]+j)%len(t.input)])))
		}
		pos[ti] += n
		in += float64(n)
		return n
	})
	return c.wallNs, in, out, perTuple
}

// traceMetrics derives the metrics that come from recorded spans.
func traceMetrics(rec *recorder, m map[string]float64) {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	self := selfTimes(spans)
	// A traced slice's self time is what the generator spent outside
	// Publish (waiting for its window to open, stamping); for the rest of
	// the slice it was blocked in the system.
	if dur, selfNs, n := sumByName(spans, self, "sat.slice"); n > 0 && dur > 0 {
		m["core.publish_block_frac"] = 1 - float64(selfNs)/float64(dur)
	}
	m["harness.trace_spans"] = float64(len(spans))
}
