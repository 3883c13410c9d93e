package main

import (
	"fmt"
	"runtime"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// tuplepathReport is the schema of BENCH_tuplepath.json: microbenchmarks
// of the three hot-path layers (codec, interest matching, relay fan-out),
// each comparing the interpreted/fresh-allocation baseline against the
// compiled/pooled implementation.
type tuplepathReport struct {
	BatchSize int `json:"batch_size"`
	Children  int `json:"children"`

	// Codec: ns/tuple to encode a batch into a fresh slice vs. a pooled
	// reused buffer, and to decode with fresh allocations vs. the pooled
	// DecodeBuffer arena.
	EncodeFreshNsPerTuple  float64 `json:"encode_fresh_ns_per_tuple"`
	EncodePooledNsPerTuple float64 `json:"encode_pooled_ns_per_tuple"`
	DecodeFreshNsPerTuple  float64 `json:"decode_fresh_ns_per_tuple"`
	DecodePooledNsPerTuple float64 `json:"decode_pooled_ns_per_tuple"`

	// Matching: ns per Matches call, interpreted (field names resolved
	// through the schema on every tuple) vs. compiled (indices resolved
	// once at registration).
	MatchInterpretedNs float64 `json:"match_interpreted_ns"`
	MatchCompiledNs    float64 `json:"match_compiled_ns"`
	MatchSpeedup       float64 `json:"match_speedup"`
	MatchAllocsPerOp   float64 `json:"match_allocs_per_op"`

	// Relay fan-out: ns/tuple through one relay hop (decode + per-child
	// match + encode + send) with mixed child registrations (half
	// match-all, half selective). The interpreted baseline replicates the
	// pre-optimization algorithm: fresh DecodeBatch, per-tuple
	// InterestSet.Matches through the schema, fresh AppendBatch per
	// child. The compiled path drives Relay.HandleTuples.
	RelayInterpretedNsPerTuple float64 `json:"relay_interpreted_ns_per_tuple"`
	RelayCompiledNsPerTuple    float64 `json:"relay_compiled_ns_per_tuple"`
	RelaySpeedup               float64 `json:"relay_speedup"`

	// Steady-state allocations per tuple through the relay hop. The
	// acceptance bar is ~0 for the compiled path (AllocsPerRun-enforced
	// by tests; reported here for the record).
	RelayInterpretedAllocsPerTuple float64 `json:"relay_interpreted_allocs_per_tuple"`
	RelayCompiledAllocsPerTuple    float64 `json:"relay_compiled_allocs_per_tuple"`
}

// benchNullTransport routes interest registrations between locally
// registered relays synchronously and drops everything else, so the
// fan-out bench measures exactly one relay's cost with zero send cost —
// identical for both sides of the comparison.
type benchNullTransport struct {
	handlers map[simnet.NodeID]simnet.Handler
	traffic  *simnet.Traffic
}

func newBenchNullTransport() *benchNullTransport {
	return &benchNullTransport{
		handlers: make(map[simnet.NodeID]simnet.Handler),
		traffic:  simnet.NewTraffic(),
	}
}

func (b *benchNullTransport) Register(id simnet.NodeID, h simnet.Handler) error {
	b.handlers[id] = h
	return nil
}
func (b *benchNullTransport) Deregister(id simnet.NodeID) error { delete(b.handlers, id); return nil }
func (b *benchNullTransport) Traffic() *simnet.Traffic          { return b.traffic }
func (b *benchNullTransport) Close() error                      { return nil }

func (b *benchNullTransport) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	if kind != dissemination.KindInterest {
		return nil // tuple traffic is dropped: the bench measures the sender
	}
	h, ok := b.handlers[to]
	if !ok {
		return nil
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	h(simnet.Message{From: from, To: to, Kind: kind, Payload: cp})
	return nil
}

func tuplepathSchema() *stream.Schema {
	return stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000},
	)
}

func tuplepathBatch(n int) stream.Batch {
	b := make(stream.Batch, 0, n)
	for i := 0; i < n; i++ {
		sym := "ibm"
		if i%2 == 1 {
			sym = "aapl"
		}
		b = append(b, stream.NewTuple("quotes", uint64(i), time.Unix(int64(i), 0).UTC(),
			stream.String(sym), stream.Float(float64(i%100))))
	}
	return b
}

// allocsPerRun reimplements testing.AllocsPerRun (the testing package's
// benchmark hooks are unavailable outside tests): mallocs across runs
// divided by runs, after one discarded warmup call, on one proc so
// unrelated goroutines do not pollute the global malloc counter.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warmup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func runTuplepathBench(path string) error {
	const (
		batchSize = 64
		nChildren = 4
		iters     = 2000
	)
	sc := tuplepathSchema()
	batch := tuplepathBatch(batchSize)
	wire := stream.AppendBatch(nil, batch)
	rep := tuplepathReport{BatchSize: batchSize, Children: nChildren}

	// --- Codec layer ---
	perOp := func(n int, f func()) float64 {
		f() // warmup
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	rep.EncodeFreshNsPerTuple = perOp(iters, func() {
		_ = stream.AppendBatch(nil, batch)
	}) / batchSize
	encBuf := stream.GetEncodeBuffer()
	rep.EncodePooledNsPerTuple = perOp(iters, func() {
		*encBuf = stream.AppendBatch((*encBuf)[:0], batch)
	}) / batchSize
	stream.PutEncodeBuffer(encBuf)
	rep.DecodeFreshNsPerTuple = perOp(iters, func() {
		if _, _, err := stream.DecodeBatch(wire); err != nil {
			panic(err)
		}
	}) / batchSize
	decBuf := stream.GetDecodeBuffer()
	rep.DecodePooledNsPerTuple = perOp(iters, func() {
		if _, _, err := decBuf.Decode(wire); err != nil {
			panic(err)
		}
	}) / batchSize
	stream.PutDecodeBuffer(decBuf)

	// --- Matching layer ---
	selective := stream.NewInterestSet("quotes")
	selective.Add(stream.NewInterest("quotes").WithKeys("symbol", "ibm").WithRange("price", 0, 80))
	compiled := stream.CompileSet(selective, sc)
	matchIters := 2000
	sink := false
	rep.MatchInterpretedNs = perOp(matchIters, func() {
		for i := range batch {
			sink = selective.Matches(sc, batch[i]) || sink
		}
	}) / batchSize
	rep.MatchCompiledNs = perOp(matchIters, func() {
		for i := range batch {
			sink = compiled.Matches(batch[i]) || sink
		}
	}) / batchSize
	_ = sink
	rep.MatchSpeedup = rep.MatchInterpretedNs / rep.MatchCompiledNs
	rep.MatchAllocsPerOp = allocsPerRun(100, func() {
		for i := range batch {
			sink = compiled.Matches(batch[i]) || sink
		}
	}) / batchSize

	// --- Relay fan-out layer ---
	// Topology: src -> mid -> {4 leaves}; two leaves register match-all,
	// two register the selective ibm filter. The bench drives mid.
	tp := newBenchNullTransport()
	src := dissemination.Member{ID: "src", Pos: simnet.Point{}}
	mid := dissemination.Member{ID: "mid", Pos: simnet.Point{X: 10}}
	tr, err := dissemination.Build("quotes", src, []dissemination.Member{mid}, dissemination.Balanced, nChildren)
	if err != nil {
		return err
	}
	leafPos := []simnet.Point{{X: 10, Y: 2}, {X: 10, Y: -2}, {X: 12}, {X: 8}}
	leafIDs := make([]simnet.NodeID, nChildren)
	for i := 0; i < nChildren; i++ {
		leafIDs[i] = simnet.NodeID(fmt.Sprintf("leaf%d", i))
		if _, err := tr.AddMember(dissemination.Member{ID: leafIDs[i], Pos: leafPos[i]}, nChildren); err != nil {
			return err
		}
	}
	if got := len(tr.Children("mid")); got != nChildren {
		return fmt.Errorf("tuplepath bench: mid has %d children, want %d", got, nChildren)
	}
	rel, err := dissemination.NewRelay(tr, "mid", sc, tp, nil, 0)
	if err != nil {
		return err
	}
	defer rel.Close()
	childSets := make([]*stream.InterestSet, nChildren)
	for i, id := range leafIDs {
		leaf, err := dissemination.NewRelay(tr, id, sc, tp, nil, 0)
		if err != nil {
			return err
		}
		defer leaf.Close()
		var terms []stream.Interest
		if i < nChildren/2 {
			terms = []stream.Interest{stream.NewInterest("quotes")}
		} else {
			terms = []stream.Interest{stream.NewInterest("quotes").WithKeys("symbol", "ibm").WithRange("price", 0, 80)}
		}
		if err := leaf.SetLocalInterest(terms); err != nil {
			return err
		}
		set := stream.NewInterestSet("quotes")
		for _, in := range terms {
			set.Add(in)
		}
		childSets[i] = set
	}

	// Interpreted baseline: the pre-optimization disseminate loop,
	// verbatim — fresh decode, per-tuple schema-resolved matching, fresh
	// per-child encode — against the same null send.
	interpreted := func() {
		dec, _, err := stream.DecodeBatch(wire)
		if err != nil {
			panic(err)
		}
		for i, set := range childSets {
			var sub stream.Batch
			for _, tu := range dec {
				if set.Matches(sc, tu) {
					sub = append(sub, tu)
				}
			}
			if len(sub) == 0 {
				continue
			}
			payload := stream.AppendBatch(nil, sub)
			if err := tp.Send("mid", leafIDs[i], dissemination.KindTuples, payload); err != nil {
				panic(err)
			}
		}
	}
	compiledHop := func() { rel.HandleTuples(wire) }

	for i := 0; i < 50; i++ { // warmup: pools, link workers, arenas
		interpreted()
		compiledHop()
	}
	rep.RelayInterpretedNsPerTuple = perOp(iters, interpreted) / batchSize
	rep.RelayCompiledNsPerTuple = perOp(iters, compiledHop) / batchSize
	rep.RelaySpeedup = rep.RelayInterpretedNsPerTuple / rep.RelayCompiledNsPerTuple
	rep.RelayInterpretedAllocsPerTuple = allocsPerRun(200, interpreted) / batchSize
	rep.RelayCompiledAllocsPerTuple = allocsPerRun(200, compiledHop) / batchSize

	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("tuplepath bench: relay %.0f -> %.0f ns/tuple (%.1fx), allocs/tuple %.2f -> %.3f\n",
		rep.RelayInterpretedNsPerTuple, rep.RelayCompiledNsPerTuple, rep.RelaySpeedup,
		rep.RelayInterpretedAllocsPerTuple, rep.RelayCompiledAllocsPerTuple)
	fmt.Printf("  match %.1f -> %.1f ns (%.1fx); encode %.0f -> %.0f ns/tuple; decode %.0f -> %.0f ns/tuple\n",
		rep.MatchInterpretedNs, rep.MatchCompiledNs, rep.MatchSpeedup,
		rep.EncodeFreshNsPerTuple, rep.EncodePooledNsPerTuple,
		rep.DecodeFreshNsPerTuple, rep.DecodePooledNsPerTuple)
	if rep.RelaySpeedup < 2 {
		return fmt.Errorf("tuplepath bench: relay speedup %.2fx is below the 2x acceptance bar", rep.RelaySpeedup)
	}
	return nil
}
