// Command perfbench is Cooper's benchmark. It drives the system through
// its public functions from one process and prints one JSON result line.
//
//	perfbench --workload episode-fresh --seed 1 --seconds 25 --trace 0
//
// Workloads (see workloads below and DESIGN.md for why each exists):
//
//	episode-fresh  one EpisodeLab.Run on a new lab per operation
//	episode-sweep  Runs over warmed labs, cycling four sweep variants
//	hub-fleet      two TCP sessions publishing and requesting capped rounds
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 it carries the per-layer metrics of a traced
// single-worker pass, next to an untraced single-worker pass whose CPU
// profile cross-checks the span attribution. Every input derives from
// --seed; every operation's output is checked, and a failed check counts
// the operation as failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	// tiny shrinks every workload to a smoke-test size (tests only).
	tiny bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the tables below are the
// benchmark's metric contract and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload. DESIGN.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"episode_s_p50", "s"},
	{"coop_recall", "ratio"},
	{"coop_precision", "ratio"},
	{"wire_kb_per_frame", "kB"},
	{"rounds_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p95", "ms"},
	{"publish_ms_p50", "ms"},
	{"publish_ms_p95", "ms"},
	{"round_kb", "kB"},
	{"max_rss_mb", "MB"},
}

// layers are the module names spans are attributed to.
var layers = []string{"scene", "lidar", "pointcloud", "network", "core", "fusion", "spod", "roi", "hub", "track", "store"}

// perLayer lists the metrics every traced run reports, on every workload;
// a layer that does not run in a workload reports zeros.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".calls", "count"},
			metricDef{l + ".self_ms", "ms"},
			metricDef{l + ".allocs", "count"},
			metricDef{l + ".cpu_pct", "%"},
		)
	}
	return append(defs,
		metricDef{"lidar.points", "count"},
		metricDef{"pointcloud.bytes_per_point", "B"},
		metricDef{"pointcloud.delta_ratio", "ratio"},
		metricDef{"network.delivered_ratio", "ratio"},
		metricDef{"network.transport_ms", "ms"},
		metricDef{"spod.preprocess_ms", "ms"},
		metricDef{"spod.voxel_ms", "ms"},
		metricDef{"spod.conv_ms", "ms"},
		metricDef{"spod.proposal_ms", "ms"},
		metricDef{"spod.fit_ms", "ms"},
		metricDef{"spod.points_in", "count"},
		metricDef{"spod.voxels", "count"},
		metricDef{"spod.dets_per_proposal", "ratio"},
		metricDef{"fusion.encode_ms", "ms"},
		metricDef{"fusion.fuse_ms", "ms"},
		metricDef{"fusion.icp_corrections", "count"},
		metricDef{"core.compensate_ms", "ms"},
		metricDef{"core.truth_ms", "ms"},
		metricDef{"roi.select_ms", "ms"},
		metricDef{"roi.downsampled_ratio", "ratio"},
		metricDef{"hub.publish_ms", "ms"},
		metricDef{"hub.assemble_ms", "ms"},
		metricDef{"hub.stale_ratio", "ratio"},
		metricDef{"hub.keyframe_retries", "count"},
		metricDef{"track.live", "count"},
		metricDef{"store.bytes_per_frame", "B"},
		metricDef{"trace.untraced_op_ms", "ms"},
		metricDef{"trace.traced_op_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.fidelity_checked", "count"},
	)
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*result, error){
	"episode-fresh": runEpisodeFresh,
	"episode-sweep": runEpisodeSweep,
	"hub-fleet":     runHubFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: episode-fresh, episode-sweep or hub-fleet")
		seed    = flag.Int64("seed", 1, "workload seed; every scenario seed derives from it")
		seconds = flag.Float64("seconds", 10, "how long the measured loop runs")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
		outDir  = flag.String("outdir", ".bench_build/perfbench-out", "directory for CPU profiles and span dumps")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  *outDir,
	}
	res, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := res.complete(p.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// newResult starts a result with the given metric values (by name).
func newResult(attempted, failed int, values map[string]float64) *result {
	r := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(values)),
	}
	units := make(map[string]string)
	for _, d := range endToEnd {
		units[d.name] = d.unit
	}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for name, v := range values {
		r.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return r
}

// complete checks that the result carries exactly the metric set its
// mode promises, so a workload that forgets one fails loudly instead of
// printing a short line.
func (r *result) complete(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	var missing []string
	for _, d := range want {
		if _, ok := r.Metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || len(r.Metrics) != len(want) {
		sort.Strings(missing)
		return fmt.Errorf("result has %d metrics, want %d (missing %v)", len(r.Metrics), len(want), missing)
	}
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkf reports an output check failure: the operation ran but its
// output was wrong, so it counts as failed.
func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}
