// Command e2ebench is the repository's end-to-end benchmark. It times
// the analysis pipeline from capture bytes in to verdicts out — the
// serial Analyzer through Close, the sharded ingest tier through its
// merge, and the live daemon through its epoch close — on four
// workloads, and checks the verdicts of every pass.
//
// With --trace 1 it reports per-layer numbers instead: the benchmark's
// own code drives each layer through its public entry point, records a
// span around every call, and prints the self time of each layer. No
// code inside the program is instrumented for this.
//
// Run it from the repository root:
//
//	bash e2ebench/run.sh --workload media-heavy --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. NOTES.md describes the
// workloads, the metrics and the measurement window.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bench"
	// The benchmark measures the full engine, so it registers every
	// protocol; without them the registry would be empty.
	_ "github.com/rtc-compliance/rtcc/internal/proto/protoall"
)

// defaultSeed is the seed whose reference digests are committed in
// digests.json.
const defaultSeed = 1

// watchdog bounds a whole run.
const watchdog = 170 * time.Second

// outDir holds what a run leaves behind (the traced run's spans),
// relative to the directory the benchmark runs from.
const outDir = ".bench_build/e2ebench"

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in print order.
var endToEnd = []metricSpec{
	{"pkts_per_s", "1/s"},
	{"alloc_bytes_per_pkt", "B"},
	{"allocs_per_pkt", "count"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
	{"verdict_lag_ms_p50", "ms"},
	{"verdict_lag_ms_p90", "ms"},
	{"delivered_share", "share"},
}

// perLayer lists the metrics a traced run reports, in print order.
var perLayer = []metricSpec{
	{"layers.decode_ns_per_frame", "ns"},
	{"flow.add_ns_per_pkt", "ns"},
	{"flow.streams", "count"},
	{"core.feed_ns_per_frame", "ns"},
	{"core.close_ms", "ms"},
	{"core.close_share", "share"},
	{"core.close_unattributed_ms", "ms"},
	{"filterpipe.run_us", "us"},
	{"filterpipe.rtc_stream_share", "share"},
	{"dpi.inspect_ns_per_dgram", "ns"},
	{"dpi.shift_attempts_per_dgram", "count"},
	{"dpi.msgs_per_attempt", "share"},
	{"dpi.standard_share", "share"},
	{"dpi.self_share", "share"},
	{"compliance.check_ns_per_msg", "ns"},
	{"compliance.noncompliant_share", "share"},
	{"qoe.observe_ns_per_dgram", "ns"},
	{"decode_flow.self_share", "share"},
	{"ingest.feed_ns_per_frame", "ns"},
	{"ingest.close_ms", "ms"},
	{"ingest.shard_skew", "ratio"},
	{"ingest.backpressure_share", "share"},
	{"bufpool.miss_share", "share"},
	{"go.gc_cpu_share", "share"},
	{"live.frames_dropped_est", "count"},
	{"pipeline.epochs", "count"},
	{"bench.sender_late_ms_max", "ms"},
	{"bench.trace_overhead_share", "share"},
	{"bench.host_slowdown", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// outcome is the result line: the operation counts and the metrics.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric's value; the unit comes from the spec lists.
func (o *outcome) set(name string, v float64) {
	if o.Metrics == nil {
		o.Metrics = make(map[string]metric)
	}
	o.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("e2ebench: unknown metric " + name)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"media-heavy":     func(rc runConfig) (*outcome, error) { return runBatch(mediaHeavy, rc) },
	"app-mix":         func(rc runConfig) (*outcome, error) { return runBatch(appMix, rc) },
	"bulk-background": func(rc runConfig) (*outcome, error) { return runBatch(bulkBackground, rc) },
	"daemon-replay":   runDaemon,
}

func main() {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&rc.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.IntVar(&rc.seconds, "seconds", 10, "how long the measured part of the run lasts")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	rc.trace = trace == 1
	run, ok := workloads[rc.workload]
	if !ok || rc.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}

	host := bench.CurrentHost()
	hostLine, _ := json.Marshal(map[string]any{
		"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds, "trace": trace,
		"cpu_model": host.CPUModel, "nproc": host.NumCPU, "gomaxprocs": host.GOMAXPROCS,
		"go_version": host.GoVersion,
	})
	fmt.Printf("host %s\n", hostLine)

	// A program that hangs must not hang the benchmark past its limit.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s did not finish within %v\n", rc.workload, watchdog)
		os.Exit(1)
	})
	out, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := out.Metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: %s did not report %s\n", rc.workload, m.name)
			os.Exit(1)
		}
		fmt.Printf("%-34s %16.4f %s\n", m.name, v.Value, v.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// spansPath is where a traced run writes its spans.
func spansPath(rc runConfig) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
}
