package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"cooper/internal/core"
	"cooper/internal/hub"
)

func tinyParams(t *testing.T, trace bool) params {
	return params{seed: 3, trace: trace, outDir: t.TempDir(), tiny: true}
}

// TestTinyWorkloads runs every workload at smoke-test size, untraced and
// traced: each completes with zero failed operations and reports exactly
// its promised metric set.
func TestTinyWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			p := tinyParams(t, trace)
			res, err := workloads[name](p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if err := res.complete(trace); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
		}
	}
}

// TestCorruptEpisodeCountsAsFailed proves that an episode whose output
// differs from the reference never passes.
func TestCorruptEpisodeCountsAsFailed(t *testing.T) {
	b, err := newEpisodeFresh(tinyParams(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.reference(); err != nil {
		t.Fatal(err)
	}
	b.corrupt = func(res *core.EpisodeResult) { res.Frames[len(res.Frames)-1].PayloadBytes++ }
	res := b.endToEnd(tinyParams(t, false), 0)
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Fatalf("corrupted episodes: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestMirrorGateRejectsDivergence proves the fidelity gate fails a traced
// pass whose rows differ from the untraced Run's.
func TestMirrorGateRejectsDivergence(t *testing.T) {
	c := &episodeConfig{name: "c", ref: episodeRef{
		frames: []core.EpisodeFrame{{PayloadBytes: 10, Senders: 2}},
		dets:   []int{3},
	}}
	good := []mirrorRow{{payloadBytes: 10, senders: 2, dets: 3}}
	if err := checkMirror(c, good); err != nil {
		t.Fatalf("matching rows rejected: %v", err)
	}
	for _, bad := range [][]mirrorRow{
		{{payloadBytes: 11, senders: 2, dets: 3}},
		{{payloadBytes: 10, senders: 2, dets: 4}},
		{{payloadBytes: 10, senders: 1, lost: 1, dets: 3}},
		{},
	} {
		if err := checkMirror(c, bad); err == nil {
			t.Errorf("diverging rows %+v accepted", bad)
		}
	}
}

// TestCorruptRoundCountsAsFailed proves that a served round with a
// flipped payload byte, or its slots out of order, never passes.
func TestCorruptRoundCountsAsFailed(t *testing.T) {
	p := tinyParams(t, false)
	for name, corrupt := range map[string]func([]hub.RoundFrame){
		"flipped byte": func(rf []hub.RoundFrame) {
			pl := append([]byte(nil), rf[0].Payload...)
			pl[len(pl)/2] ^= 0x40
			rf[0].Payload = pl
		},
		"slot order":     func(rf []hub.RoundFrame) { rf[0], rf[len(rf)-1] = rf[len(rf)-1], rf[0] },
		"missing sender": func(rf []hub.RoundFrame) { rf[0] = rf[1] },
	} {
		b, err := newHubFleet(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.oracle(); err != nil {
			b.close()
			t.Fatal(err)
		}
		b.corrupt = corrupt
		res := b.endToEnd(p, 0)
		b.close()
		if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestLayerCPU(t *testing.T) {
	traces := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
     300ms   cooper/internal/lidar.IntersectBox
             cooper/internal/lidar.nearestHit
             cooper/internal/core.(*EpisodeLab).capture
-----------+-------------------------------------------------------
     100ms   math.archMax
             math.Max (inline)
             cooper/internal/spod.fitBox
             cooper/internal/parallel.ForErr (inline)
             cooper/internal/core.(*EpisodeLab).Run
-----------+-------------------------------------------------------
      50ms   runtime.mallocgc
             cooper/internal/geom.Transform.Apply
             cooper/internal/pointcloud.(*Cloud).Transform
-----------+-------------------------------------------------------
      50ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	got := layerCPU(traces)
	want := map[string]float64{"lidar": 60, "spod": 20, "pointcloud": 10}
	if len(got) != len(want) {
		t.Fatalf("layerCPU = %v, want %v", got, want)
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("layerCPU[%s] = %v, want %v", l, got[l], v)
		}
	}
}
