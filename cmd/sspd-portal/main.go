// sspd-portal is the paper's "central access portal" as an interactive
// console: it boots a demo federation (quotes + trades over simulated or
// TCP transport), streams live market data through it in the background,
// and accepts sspdql continuous queries on stdin. Results print as they
// arrive, tagged by query.
//
// Commands:
//
//	FROM quotes WHERE ... [AGGREGATE ...]   submit a continuous query
//	\list                                   list active queries and hosts
//	\drop <id>                              withdraw a query
//	\stats                                  federation statistics
//	\cluster                                cluster health from the root stats digest
//	\engine                                 shard table: occupancy, drops, kernel hit-rate
//	\events [kind]                          recent structured events (optionally filtered)
//	\rebalance                              run a hybrid rebalance
//	\save <file> / \load <file>             snapshot / restore the query set
//	\quit                                   exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sspd"
	"sspd/internal/httpapi"
)

func main() {
	entities := flag.Int("entities", 4, "number of entities")
	procs := flag.Int("procs", 2, "processors per entity")
	rate := flag.Int("rate", 200, "quotes published per second")
	useTCP := flag.Bool("tcp", false, "use real TCP sockets instead of the simulated network")
	maxPrint := flag.Int("print", 5, "max results printed per query per second")
	httpAddr := flag.String("http", "", "also serve the JSON API on this address (e.g. :8080)")
	traceEvery := flag.Int("trace", 0, "trace 1 in N published tuples (0 disables; spans at GET /traces)")
	engineKind := flag.String("engine", "", `engine for all entities: "shard" (the default: shard-per-core, vectorized) or "mini" (synchronous oracle)`)
	profDir := flag.String("profdir", "", "store continuous-profiling pprof captures in this directory (serves GET /profiles)")
	route := flag.Bool("route", false, "enable Adaptation Module tuple routing: queries split into 3 fragments with replicated middle stages (table at GET /routing; pair with -trace for measured delays)")
	flag.Parse()

	var transport sspd.Transport
	if *useTCP {
		transport = sspd.NewTCPNet()
	} else {
		transport = sspd.NewSimNet(nil)
	}
	defer transport.Close()

	catalog := sspd.NewCatalog(100, 20)
	opts := sspd.Options{
		Strategy: sspd.Locality,
		Fanout:   3,
		Engine:   *engineKind,
	}
	if *route {
		opts.EnableTupleRouting = true
		opts.FragmentsPerQuery = 3
	}
	fed, err := sspd.NewFederation(transport, catalog, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", sspd.Point{},
		sspd.StreamRate{TuplesPerSec: float64(*rate), BytesPerTuple: 60}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := fed.AddSource("trades", sspd.Point{X: 5},
		sspd.StreamRate{TuplesPerSec: float64(*rate) / 2, BytesPerTuple: 40}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; i < *entities; i++ {
		id := fmt.Sprintf("e%02d", i)
		pos := sspd.Point{X: float64(10 + i*17%90), Y: float64(5 + i*29%90)}
		if err := fed.AddEntity(id, pos, *procs, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := fed.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceEvery > 0 {
		// The stats plane enabled below attributes the sampled spans to
		// latency stages; its SLO watchdog evaluates once per stats period.
		if _, err := fed.EnableTracing(*traceEvery); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("tracing 1 in %d tuples (latency attribution at GET /cluster/latency)\n", *traceEvery)
	}
	if *route {
		fmt.Println("tuple routing enabled (Adaptation Module; table at GET /routing)")
	}

	// Background market: publish batches at ~rate tuples/second.
	stop := make(chan struct{})
	go func() {
		tick := sspd.NewTicker(time.Now().UnixNano(), 100, 1.3)
		interval := 100 * time.Millisecond
		per := *rate / 10
		if per < 1 {
			per = 1
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				_ = fed.Publish("quotes", tick.Batch(per))
				var trades sspd.Batch
				for i := 0; i < per/2; i++ {
					trades = append(trades, tick.NextTrade())
				}
				if len(trades) > 0 {
					_ = fed.Publish("trades", trades)
				}
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	// The stats plane powers \cluster, \engine, /cluster/*, and the ops
	// view, and clocks the SLO and backpressure watchdogs: one evaluation
	// per digest period. It ticks off the tuple path, so keep it on
	// whenever the portal is up.
	statsPeriod := 2 * time.Second
	if err := fed.EnableStatsPlane(statsPeriod); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Continuous profiling is opt-in: it writes pprof files to disk.
	if *profDir != "" {
		if err := fed.EnableProfiling(*profDir, 30*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *httpAddr != "" {
		api, err := httpapi.New(fed, sspd.Point{X: 50, Y: 50})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go func() {
			if err := http.ListenAndServe(*httpAddr, api.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "http:", err)
			}
		}()
		fmt.Printf("JSON API listening on %s (ops view at http://localhost%s/cluster)\n",
			*httpAddr, *httpAddr)
	}

	fmt.Printf("sspd portal: %d entities × %d processors, %d quotes/s (transport: %T)\n",
		*entities, *procs, *rate, transport)
	fmt.Println(`type an sspdql query ("FROM quotes WHERE price <= 200"), or \list \drop \stats \rebalance \quit`)

	nextID := 0
	states := map[string]*qstate{}

	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\list`:
			for id, st := range states {
				if host, ok := fed.QueryEntity(id); ok {
					fmt.Printf("  %-8s on %-4s results=%d\n", id, host, st.count.Load())
				}
			}
		case line == `\stats`:
			tr := transport.Traffic()
			fmt.Printf("  entities=%d queries=%d traffic=%dKB msgs=%d\n",
				len(fed.EntityIDs()), fed.NumQueries(),
				tr.TotalBytes()/1024, tr.TotalMessages())
			for _, c := range fed.Ledger().Charges() {
				fmt.Printf("  %-4s charged %v\n", c.Entity, c.Execution.Round(time.Millisecond))
			}
		case line == `\cluster`:
			rows, root, ok := fed.ClusterStats()
			if !ok {
				fmt.Println("  no digest at the root yet (stats federate every", statsPeriod, ")")
				continue
			}
			fmt.Printf("  digest root: %s\n", root)
			fmt.Printf("  %-6s %-8s %6s %7s %7s %6s\n", "entity", "health", "load", "queries", "pr_max", "age")
			for _, h := range fed.ClusterHealth() {
				state := "healthy"
				switch {
				case !h.Up:
					state = "down"
				case !h.Fresh:
					state = "stale"
				}
				age := "—"
				if h.AgeSeconds >= 0 {
					age = fmt.Sprintf("%.1fs", h.AgeSeconds)
				}
				fmt.Printf("  %-6s %-8s %6.2f %7d %7.3f %6s\n",
					h.Entity, state, h.Load, h.Queries, h.PRMax, age)
			}
			var bytes, msgs int64
			for _, r := range rows {
				for _, ss := range r.Streams {
					bytes += ss.Bytes
					msgs += ss.Messages
				}
			}
			fmt.Printf("  relay traffic: %dKB in %d messages\n", bytes/1024, msgs)
		case line == `\engine`:
			view, ok := fed.ClusterEngine()
			if !ok {
				fmt.Println("  stats plane not enabled")
				continue
			}
			fmt.Printf("  drop rate %.2f%%  ring occ p99 %.1f%%", 100*view.DropRate, 100*view.RingOccP99)
			if view.Saturated {
				fmt.Print("  SATURATED")
			}
			fmt.Println()
			fmt.Printf("  %-6s %-10s %5s %6s %5s %9s %8s %7s %7s\n",
				"entity", "engine", "shard", "occ", "hw", "tuples", "dropped", "kernel", "select")
			for _, ee := range view.Entities {
				for _, sh := range ee.Stats.Shards {
					kernel := "—"
					if sh.Tuples > 0 {
						kernel = fmt.Sprintf("%.1f%%", 100*sh.KernelShare())
					}
					sel := "—"
					if sh.KernelIn > 0 {
						sel = fmt.Sprintf("%.1f%%", 100*sh.Selectivity())
					}
					fmt.Printf("  %-6s %-10s %5d %6d %5d %9d %8d %7s %7s\n",
						ee.Entity, sh.Engine, sh.Shard, sh.Occupancy, sh.HighWater,
						sh.Tuples, sh.Dropped, kernel, sel)
				}
				if len(ee.Stats.Shards) == 0 {
					fmt.Printf("  %-6s (no introspectable engine)\n", ee.Entity)
				}
			}
		case line == `\events` || strings.HasPrefix(line, `\events `):
			kind := strings.TrimSpace(strings.TrimPrefix(line, `\events`))
			events := fed.Journal().Recent(20)
			shown := 0
			for _, e := range events {
				if kind != "" && !sspd.EventKindMatches(e.Kind, kind) {
					continue
				}
				fmt.Printf("  #%-5d %-8s %-20s %-6s %s\n",
					e.Seq, e.Level, e.Kind, e.Node, e.Msg)
				shown++
			}
			if shown == 0 {
				fmt.Println("  no matching events")
			}
		case line == `\rebalance`:
			moved, err := fed.Rebalance()
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			fmt.Printf("  migrated %d queries\n", moved)
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			data, err := fed.ExportQueries()
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Println("  error:", err)
				continue
			}
			fmt.Printf("  saved %d bytes to %s\n", len(data), path)
		case strings.HasPrefix(line, `\load `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\load `))
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			added, err := fed.ImportQueries(data, sspd.Point{X: 50, Y: 50})
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			fmt.Printf("  restored %d queries (results not re-subscribed)\n", added)
		case strings.HasPrefix(line, `\drop `):
			id := strings.TrimSpace(strings.TrimPrefix(line, `\drop `))
			if err := fed.RemoveQuery(id); err != nil {
				fmt.Println("  error:", err)
				continue
			}
			delete(states, id)
			fmt.Printf("  dropped %s\n", id)
		case strings.HasPrefix(line, `\`):
			fmt.Println("  unknown command")
		default:
			nextID++
			id := fmt.Sprintf("q%03d", nextID)
			spec, err := sspd.ParseQuery(id, line)
			if err != nil {
				fmt.Println("  parse error:", err)
				nextID--
				continue
			}
			st := &qstate{}
			states[id] = st
			budget := int64(*maxPrint)
			entity, err := fed.SubmitQuery(spec, sspd.Point{X: 50, Y: 50}, func(t sspd.Tuple) {
				n := st.count.Add(1)
				if st.window.Add(1) <= budget {
					fmt.Printf("  [%s #%d] %v\n", id, n, t)
				}
			})
			if err != nil {
				fmt.Println("  error:", err)
				delete(states, id)
				nextID--
				continue
			}
			// Reset the print window every second.
			go func() {
				t := time.NewTicker(time.Second)
				defer t.Stop()
				for range t.C {
					if _, ok := fed.QueryEntity(id); !ok {
						return
					}
					st.window.Store(0)
				}
			}()
			fmt.Printf("  %s -> %s   (%s)\n", id, entity, sspd.FormatQuery(spec))
		}
	}
}

// qstate tracks one query's console bookkeeping.
type qstate struct {
	count  atomic.Int64
	window atomic.Int64 // results printed in the current second
}
