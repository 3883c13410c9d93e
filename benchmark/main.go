// Command benchmark is the repository's one end-to-end benchmark: it
// drives a federation through the public API from Federation.Publish to
// the result callback on four workloads, checks every result against an
// oracle, and reports end-to-end metrics (untraced) or per-layer metrics
// (traced run with a layer replay). See README.md.
//
//	go run -C benchmark . --workload relay_fanout --seed 1 --seconds 10 --trace 0
//	go run -C benchmark .                 # every workload, both modes
//	go run -C benchmark . --selfcheck     # two sets of runs, compared
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds.
type metricDef struct {
	Name  string
	Unit  string
	Lower bool // lower is better
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression.
	Bound float64
}

var endToEnd = []metricDef{
	{"tuples_per_s", "tuples/s", false, 0.25},
	{"cpu_ns_per_tuple", "ns", true, 0.25},
	{"alloc_bytes_per_tuple", "B", true, 0.05},
	{"setup_s", "s", true, 0.25},
	{"peak_rss_mb", "MB", true, 0.25},
}

var perLayer = []metricDef{
	{"stream.encode_ns_per_tuple", "ns", true, 0},
	{"stream.decode_ns_per_tuple", "ns", true, 0},
	{"stream.match_ns_per_tuple", "ns", true, 0},
	{"stream.wire_bytes_per_tuple", "B", true, 0},
	{"dissemination.hop_ns_per_tuple", "ns", true, 0},
	{"dissemination.hops_per_tuple", "count", true, 0},
	{"dissemination.relayed_tuples", "count", true, 0},
	{"dissemination.suppressed_tuples", "count", false, 0},
	{"dissemination.delivered_tuples", "count", true, 0},
	{"dissemination.suppressed_frac", "ratio", false, 0},
	{"dissemination.send_errors", "count", true, 0},
	{"simnet.send_ns_per_msg", "ns", true, 0},
	{"simnet.cpu_ns_per_msg", "ns", true, 0},
	{"simnet.deliver_us_p50", "us", true, 0},
	{"simnet.bytes_total", "B", true, 0},
	{"simnet.messages_total", "count", true, 0},
	{"entity.ingest_ns_per_tuple", "ns", true, 0},
	{"entity.place_query_ms", "ms", true, 0},
	{"engine.ingest_ns_per_tuple", "ns", true, 0},
	{"engine.proc_us_mean", "us", true, 0},
	{"engine.delay_ms_mean", "ms", true, 0},
	{"engine.dropped_tuples", "count", true, 0},
	{"operator.tail_ns_per_tuple", "ns", true, 0},
	{"operator.results_per_tuple", "ratio", true, 0},
	{"core.publish_ns_per_tuple", "ns", true, 0},
	{"core.publish_block_frac", "ratio", true, 0},
	{"core.results_per_tuple", "ratio", true, 0},
	{"core.result_latency_p50_ms", "ms", true, 0},
	{"core.result_latency_p90_ms", "ms", true, 0},
	{"core.submit_query_ms_p50", "ms", true, 0},
	{"core.remove_query_ms_p50", "ms", true, 0},
	{"coordinator.route_query_us", "us", true, 0},
	{"harness.gen_late_p99_ms", "ms", true, 0},
	{"harness.gen_late_max_ms", "ms", true, 0},
	{"harness.setup_median_s", "s", true, 0},
	{"harness.callback_ns", "ns", true, 0},
	{"harness.paced_drain_ms", "ms", true, 0},
	{"harness.result_latency_p99_ms", "ms", true, 0},
	{"harness.result_latency_whole_p50_ms", "ms", true, 0},
	{"harness.result_latency_whole_p90_ms", "ms", true, 0},
	{"harness.latency_samples", "count", false, 0},
	{"harness.tuples_per_s_median", "tuples/s", false, 0},
	{"harness.results_expected", "count", true, 0},
	{"harness.results_delivered", "count", false, 0},
	{"harness.oracle_s", "s", true, 0},
	{"harness.oracle_tuples_per_s", "tuples/s", false, 0},
	{"harness.trace_overhead_pct", "%", true, 0},
	{"harness.trace_spans", "count", true, 0},
	{"harness.replay_errors", "count", true, 0},
	{"budget.stream_ns", "ns", true, 0},
	{"budget.dissemination_ns", "ns", true, 0},
	{"budget.simnet_ns", "ns", true, 0},
	{"budget.entity_ns", "ns", true, 0},
	{"budget.engine_ns", "ns", true, 0},
	{"budget.operator_ns", "ns", true, 0},
	{"budget.harness_ns", "ns", true, 0},
	{"budget.attributed_ns_per_tuple", "ns", true, 0},
	{"budget.unattributed_frac", "ratio", true, 0},
}

// exactCounts are the metrics that must repeat exactly for a seed. Over
// TCP with concurrent churn only the expected result count must.
var exactCounts = []string{
	"harness.results_expected",
	"dissemination.relayed_tuples",
	"dissemination.suppressed_tuples",
	"dissemination.delivered_tuples",
	"simnet.messages_total",
	"simnet.bytes_total",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: relay_fanout, many_queries, stateful_tail or tcp_churn (default: all, both modes)")
	seed := fs.Int64("seed", 1, "seeds the generated tuples and query specs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run, split evenly between the closed-loop and the open-loop phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and the layer replay")
	selfcheck := fs.Bool("selfcheck", false, "run every workload in two interleaved sets and compare their medians against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	switch {
	case *selfcheck:
		return selfCheck(*seed, *seconds, stdout, stderr)
	case *workload == "":
		return runAll(*seed, *seconds, stdout, stderr)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{W: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: "out"}
	res := runWorkload(cfg)
	printRun(stdout, cfg, res)
	if err := printReport(stdout, res, cfg.Trace); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct || res.FailedIn != "" {
		return 1
	}
	return 0
}

// commit names the source the binary was built from: the revision the
// toolchain stamped into it or, since go run stamps none, what git says
// about the checkout the benchmark runs in (its working directory is
// benchmark/). Git is kept from looking above the repository root, so a
// checkout that is not a repository reads "unknown".
var commit = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		if rev != "" {
			return rev + modified
		}
	}
	root, err := filepath.Abs("..")
	if err != nil {
		return "unknown"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil || rev == "" {
		return "unknown"
	}
	if changed, err := git("status", "--porcelain", "--untracked-files=no"); err != nil || changed != "" {
		rev += "+modified"
	}
	return rev
})

// envStamp describes the machine, the build and the run's inputs.
func envStamp(cfg runConfig, pl plan) map[string]any {
	return map[string]any{
		"go":             runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"commit":         commit(),
		"seed":           cfg.Seed,
		"seconds":        cfg.Seconds,
		"window":         inFlight,
		"warm_tuples":    pl.Warm * batchSize,
		"sat_tuples":     pl.Sat * batchSize,
		"paced_tuples":   pl.Paced * batchSize,
		"paced_rate_tps": cfg.W.PacedTuplesPerSec,
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// printRun writes the human-readable form: the stamp, the verdict and
// every metric the run produced, by name, with its unit. The "detail"
// line carries the same numbers for --selfcheck.
func printRun(w io.Writer, cfg runConfig, res runResult) {
	stamp, _ := json.Marshal(envStamp(cfg, res.Plan))
	fmt.Fprintf(w, "workload %s  trace=%v\nenv %s\n", res.Workload, cfg.Trace, stamp)
	v := res.Verdict
	fmt.Fprintf(w, "results: expected %d, delivered %d, missing %d, extra %d, duplicated %d, stray %d, checksum-mismatched %d\n",
		v.Expected, v.Delivered, v.Missing, v.Extra, v.Duplicates, v.Stray, v.Mismatched)
	fmt.Fprintf(w, "operations: %d failed of %d attempted; correct=%v\n", res.Failed, res.Attempted, res.Correct)
	if res.FailedIn != "" {
		fmt.Fprintf(w, "FAILED in phase %q (goroutine stacks, if it hung: %s/%s.hang.txt)\n", res.FailedIn, cfg.OutDir, res.Workload)
	}
	if res.Unresolved {
		fmt.Fprintf(w, "UNRESOLVED latency: the generator ran late (p99 %.2f ms > 5 ms), so result_latency_* describe the host\n",
			res.Metrics["harness.gen_late_p99_ms"])
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", name, res.Metrics[name], unitOf(name))
	}
	detail, _ := json.Marshal(res.Metrics)
	fmt.Fprintf(w, "detail %s\n", detail)
}

// printReport writes the contract's last line: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func printReport(w io.Writer, res runResult, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// childRun is what the parent keeps of one child process.
type childRun struct {
	report report
	detail map[string]float64
	exit   int
}

// runChild runs one workload in a process of its own, so peak RSS and
// every cache start fresh, and a wedged federation dies with its process.
func runChild(workload string, seed int64, seconds float64, trace int, echo, stderr io.Writer) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	cr := childRun{}
	if cmd.ProcessState != nil {
		cr.exit = cmd.ProcessState.ExitCode()
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "detail "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "detail ")), &cr.detail); err != nil {
				return cr, fmt.Errorf("%s: detail line: %w", workload, err)
			}
		case echo != nil:
			fmt.Fprintln(echo, line)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &cr.report); err != nil {
		return cr, fmt.Errorf("%s: no result line (exit %d, %v)", workload, cr.exit, runErr)
	}
	return cr, nil
}

// runAll runs every workload untraced and traced and prints every
// metric; the last line folds the end-to-end metrics of all workloads
// into one object keyed workload.metric.
func runAll(seed int64, seconds float64, stdout, stderr io.Writer) int {
	total := report{Correct: true, Metrics: make(map[string]metricValue)}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cr, err := runChild(w.Name, seed, seconds, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				total.Correct = false
				code = 1
				continue
			}
			if cr.exit != 0 {
				code = 1
			}
			if trace == 0 {
				total.Attempted += cr.report.Attempted
				total.Failed += cr.report.Failed
			}
			total.Correct = total.Correct && cr.report.Correct
			for name, v := range cr.report.Metrics {
				total.Metrics[w.Name+"."+name] = v
			}
		}
	}
	total.Attempted = max(total.Attempted, 1)
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// selfCheckRuns is the number of runs per workload in each of the two
// sets of --selfcheck.
const selfCheckRuns = 3

// selfCheck runs the whole benchmark as two interleaved sets on the same
// binary and holds the sets' medians against each other: an end-to-end
// metric whose two medians differ by more than its bound cannot tell a
// regression from noise.
func selfCheck(seed int64, seconds float64, stdout, stderr io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-14s %-24s %14s %14s %8s %7s\n", "workload", "metric", "median A", "median B", "gap", "bound")
	for _, w := range workloads {
		var sets [2][]childRun
		for r := 0; r < selfCheckRuns; r++ {
			for s := 0; s < 2; s++ {
				cr, err := runChild(w.Name, seed, seconds, 0, nil, stderr)
				if err != nil || cr.exit != 0 || !cr.report.Correct {
					fmt.Fprintf(stdout, "%-14s run failed: %v (exit %d)\n", w.Name, err, cr.exit)
					code = 1
					continue
				}
				sets[s] = append(sets[s], cr)
			}
		}
		if len(sets[0]) == 0 || len(sets[1]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			var med [2]float64
			for s := range sets {
				vs := make([]float64, len(sets[s]))
				for i, cr := range sets[s] {
					vs[i] = cr.report.Metrics[d.Name].Value
				}
				med[s] = median(vs)
			}
			gap := relGap(med[0], med[1], d.Lower)
			verdict := ""
			if gap > d.Bound || -gap > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-24s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n",
				w.Name, d.Name, med[0], med[1], 100*gap, 100*d.Bound, verdict)
		}
		counts := exactCounts
		if w.Churn {
			counts = exactCounts[:1]
		}
		for _, name := range counts {
			first := sets[0][0].detail[name]
			for s := range sets {
				for _, cr := range sets[s] {
					if cr.detail[name] != first {
						fmt.Fprintf(stdout, "%-14s %-24s does not repeat exactly: %v vs %v\n", w.Name, name, first, cr.detail[name])
						code = 1
					}
				}
			}
		}
		failed, attempted := uint64(0), uint64(0)
		for s := range sets {
			for _, cr := range sets[s] {
				failed += cr.report.Failed
				attempted += cr.report.Attempted
			}
		}
		fmt.Fprintf(stdout, "%-14s operations: %d failed of %d attempted over %d runs\n", w.Name, failed, attempted, len(sets[0])+len(sets[1]))
	}
	return code
}
