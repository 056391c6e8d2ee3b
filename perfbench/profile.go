package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profileCPU runs fn under the CPU profiler, writes the profile to path
// and returns the sampled CPU per layer, in percent of all samples: the
// cross-check on the traced pass's span attribution. The summary comes
// from `go tool pprof -traces`; when the go tool is unavailable the
// profile is still written and the summary is empty.
func profileCPU(path string, fn func()) (map[string]float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: summarising %s: %v\n", path, err)
		return map[string]float64{}, nil
	}
	return layerCPU(out), nil
}

// layerCPU attributes each sampled stack in pprof -traces output to the
// innermost frame in a cooper/internal/<layer> package — so a layer's
// share includes the runtime and library code it called — and returns
// each layer's share of all samples in percent. Samples with no layer
// frame (GC workers, the benchmark's own code) count only in the total.
func layerCPU(traces []byte) map[string]float64 {
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	const prefix = "cooper/internal/"
	byLayer := make(map[string]time.Duration)
	var total, value time.Duration
	layer := ""
	flush := func() {
		total += value
		if layer != "" {
			byLayer[layer] += value
		}
		value, layer = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if len(fields) >= 2 {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				value, frame = d, fields[1] // a sample's first line: its value, then its leaf frame
			}
		}
		if layer == "" && strings.HasPrefix(frame, prefix) {
			pkg := frame[len(prefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if known[pkg] {
				layer = pkg
			}
		}
	}
	flush()
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for l, d := range byLayer {
		out[l] = 100 * float64(d) / float64(total)
	}
	return out
}

// printLayerTable writes, to stderr, each layer's traced self time next
// to its sampled CPU share: the two attributions side by side.
func printLayerTable(workload string, values map[string]float64) {
	total := 0.0
	for _, l := range layers {
		total += values[l+".self_ms"]
	}
	fmt.Fprintf(os.Stderr, "%s: layer     self_ms/op  span%%   cpu%%\n", workload)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * values[l+".self_ms"] / total
		}
		fmt.Fprintf(os.Stderr, "%s: %-10s %10.2f %6.1f %6.1f\n", workload, l, values[l+".self_ms"], share, values[l+".cpu_pct"])
	}
}

// logFailure reports a workload's first failed operation on stderr.
func logFailure(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failed operation: %v\n", what, err)
	}
}
