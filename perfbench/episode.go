package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"path/filepath"
	"runtime"
	"time"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/scene"
	"cooper/internal/store"
	"cooper/internal/telemetry"
)

// episodeConfig is one (scenario, variant) pair an episode workload runs.
type episodeConfig struct {
	name string
	sc   *scene.Scenario
	opts core.EpisodeOptions // Workers, Metrics and Sink are set per run
	// lab is the shared warmed lab of episode-sweep; nil means every
	// operation builds a new lab (episode-fresh).
	lab *core.EpisodeLab
	ref episodeRef
}

// episodeRef is a configuration's expected output, from a Workers = 1
// run made during set-up.
type episodeRef struct {
	digest [sha256.Size]byte
	frames []core.EpisodeFrame
	dets   []int // fused detections per frame, from the store log
}

// episodeBench is an episode workload's state.
type episodeBench struct {
	name    string
	configs []*episodeConfig
	// corrupt, when set, alters every operation's result before it is
	// checked; the tests use it to prove that a wrong output counts as a
	// failed operation.
	corrupt func(*core.EpisodeResult)
}

// episodeSize is the workload geometry: fleet, frames and rate.
type episodeSize struct {
	fleet, frames int
	hz            float64
}

func sizeFor(p params) episodeSize {
	if p.tiny {
		return episodeSize{fleet: 3, frames: 2, hz: 4}
	}
	return episodeSize{fleet: 4, frames: 8, hz: 4}
}

// episodeFamilies are the generated worlds both episode workloads run:
// a platoon (senders ahead in one lane) and an intersection (senders
// around a junction, where cooperation matters most).
var episodeFamilies = []scene.Family{"platoon", "intersection"}

// worldSeed fixes each family's world layout — road geometry, traffic,
// motion — so that the work an operation does, and the detections it
// yields, compare across workload seeds: over generated layouts the
// fused recall and precision alone spread by 6–9% between seeds, beyond
// a useful regression bound.
const worldSeed = 1

// lossSeed fixes the lossy variant's drop pattern for the same reason:
// over 24 sender slots an episode's realised loss swings widely between
// seeds, and with it the bytes and rounds delivered.
const lossSeed = 1

// sensingSeed derives scenario i's seed — the one that drives its LiDAR
// noise and drift walks — from the workload seed.
func sensingSeed(seed int64, i int) int64 { return seed*1009 + int64(i)*101 + 1 }

// generate builds family fam's world at the fixed layout, seeded for
// sensing from the workload seed.
func generate(fam scene.Family, fleet int, seed int64, i int) (*scene.Scenario, error) {
	sc, err := scene.Generate(scene.GenParams{Family: fam, Fleet: fleet, Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	sc.Seed = sensingSeed(seed, i)
	return sc, nil
}

func generateScenarios(p params, fleet int) ([]*scene.Scenario, error) {
	var out []*scene.Scenario
	for i, fam := range episodeFamilies {
		sc, err := generate(fam, fleet, p.seed, i)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// baseOptions are the options every episode run shares.
func baseOptions(sz episodeSize) core.EpisodeOptions {
	return core.EpisodeOptions{Frames: sz.frames, Hz: sz.hz}
}

// sweepVariant is one episode-sweep configuration: the Fig. 15–17 axes.
type sweepVariant struct {
	name  string
	apply func(*core.EpisodeOptions)
}

func sweepVariants(lossSeed int64) []sweepVariant {
	return []sweepVariant{
		{"feature", func(o *core.EpisodeOptions) { o.Backend = fusion.DefaultFeatureBackend() }},
		{"v3-loss20", func(o *core.EpisodeOptions) { o.Wire = "v3"; o.Loss = network.DefaultLoss(0.2, lossSeed) }},
		{"drift1m-icp", func(o *core.EpisodeOptions) { o.Drift = 1; o.Correct = true }},
		{"comp-250ms", func(o *core.EpisodeOptions) { o.Compensate = true; o.Delay = 250 * time.Millisecond }},
	}
}

// newEpisodeFresh builds episode-fresh: each operation is one Run on a new
// lab, alternating the platoon and intersection fleets, compensation on,
// raw backend, wire v2, lossless.
func newEpisodeFresh(p params) (*episodeBench, error) {
	sz := sizeFor(p)
	scs, err := generateScenarios(p, sz.fleet)
	if err != nil {
		return nil, err
	}
	b := &episodeBench{name: "episode-fresh"}
	for _, sc := range scs {
		opts := baseOptions(sz)
		opts.Compensate = true
		b.configs = append(b.configs, &episodeConfig{name: sc.Name, sc: sc, opts: opts})
	}
	return b, nil
}

// newEpisodeSweep builds episode-sweep: one lab per scenario, its
// captures and single-shot detections warmed by one run, then the four
// sweep variants per lab.
func newEpisodeSweep(p params) (*episodeBench, error) {
	sz := sizeFor(p)
	scs, err := generateScenarios(p, sz.fleet)
	if err != nil {
		return nil, err
	}
	b := &episodeBench{name: "episode-sweep"}
	for _, sc := range scs {
		lab := core.NewEpisodeLab(sc)
		warm := baseOptions(sz)
		warm.Workers = 2
		if _, err := lab.Run(warm); err != nil {
			return nil, fmt.Errorf("warming %s: %w", sc.Name, err)
		}
		for _, v := range sweepVariants(lossSeed) {
			opts := baseOptions(sz)
			v.apply(&opts)
			b.configs = append(b.configs, &episodeConfig{name: sc.Name + "/" + v.name, sc: sc, opts: opts, lab: lab})
		}
	}
	return b, nil
}

// header is the store header every run of a configuration writes.
func (c *episodeConfig) header() store.Header {
	backend := "raw"
	if c.opts.Backend != nil {
		backend = c.opts.Backend.Name()
	}
	return store.Header{
		Label: c.name, Scenario: c.sc.Name, Seed: c.sc.Seed, Frames: c.opts.Frames, Hz: c.opts.Hz,
		Backend: backend, UseICP: c.opts.Correct, Wire: c.opts.Wire,
	}
}

// run plays the configuration once at the given worker count, with a
// telemetry registry and a store sink attached as in the instrumented
// production path; the sink streams into log (a hash, or a buffer for the
// reference run). It returns the Run's wall time.
func (c *episodeConfig) run(workers int, log hash.Hash) (*core.EpisodeResult, time.Duration, error) {
	start := time.Now()
	lab := c.lab
	if lab == nil {
		lab = core.NewEpisodeLab(c.sc)
	}
	sink, err := store.NewEpisodeWriter(log, c.header())
	if err != nil {
		return nil, 0, err
	}
	opts := c.opts
	opts.Workers = workers
	opts.Metrics = telemetry.New()
	opts.Sink = sink
	res, err := lab.Run(opts)
	if err == nil {
		// The caller owns the sink: Close appends the End record and
		// flushes the log into the hash.
		err = sink.Close()
	}
	return res, time.Since(start), err
}

// digest fingerprints an episode's outputs: every EpisodeFrame row, the
// track metrics and the store log (detections, rounds, track states).
func digest(res *core.EpisodeResult, log hash.Hash) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range res.Frames {
		fmt.Fprintf(h, "%+v\n", f)
	}
	fmt.Fprintf(h, "%+v %d\n", res.Temporal, res.Tracks)
	h.Write(log.Sum(nil))
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// teeHash hashes what it is written while keeping a copy, so the
// reference run's store log can be both digested and read back.
type teeHash struct {
	hash.Hash
	buf bytes.Buffer
}

func (t *teeHash) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.Hash.Write(p)
}

// reference runs every configuration once at Workers = 1 and records its
// digest, rows and per-frame detection counts.
func (b *episodeBench) reference() error {
	for _, c := range b.configs {
		log := &teeHash{Hash: sha256.New()}
		res, _, err := c.run(1, log)
		if err != nil {
			return fmt.Errorf("%s: reference run: %w", c.name, err)
		}
		ep, err := store.ReadEpisode(&log.buf)
		if err != nil {
			return fmt.Errorf("%s: reading reference log: %w", c.name, err)
		}
		dets := make([]int, len(res.Frames))
		for _, d := range ep.Detections {
			if d.Frame < 0 || d.Frame >= len(dets) {
				return fmt.Errorf("%s: reference log has detections for frame %d", c.name, d.Frame)
			}
			dets[d.Frame] = len(d.Dets)
		}
		c.ref = episodeRef{digest: digest(res, log), frames: res.Frames, dets: dets}
	}
	return nil
}

// op runs one checked operation: a Run at the given worker count whose
// digest must equal the configuration's reference.
func (b *episodeBench) op(c *episodeConfig, workers int) (time.Duration, error) {
	log := sha256.New()
	res, d, err := c.run(workers, log)
	if err != nil {
		return d, err
	}
	if b.corrupt != nil {
		b.corrupt(res)
	}
	if digest(res, log) != c.ref.digest {
		return d, checkf("%s: episode digest differs from the Workers = 1 reference", c.name)
	}
	return d, nil
}

func runEpisodeFresh(p params) (*result, error) {
	return runEpisodes(p, func() (*episodeBench, error) { return newEpisodeFresh(p) })
}

func runEpisodeSweep(p params) (*result, error) {
	return runEpisodes(p, func() (*episodeBench, error) { return newEpisodeSweep(p) })
}

func runEpisodes(p params, build func() (*episodeBench, error)) (*result, error) {
	b, setup, err := timedSetup(build, nil)
	if err != nil {
		return nil, err
	}
	if err := b.reference(); err != nil {
		return nil, err
	}
	if p.trace {
		return b.traced(p)
	}
	return b.endToEnd(p, setup), nil
}

// opLog collects operation outcomes.
type opLog struct {
	attempted, failed int
	perConfig         map[*episodeConfig][]float64 // op seconds
	firstErr          error
}

func (l *opLog) record(c *episodeConfig, d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	if l.perConfig == nil {
		l.perConfig = make(map[*episodeConfig][]float64)
	}
	l.perConfig[c] = append(l.perConfig[c], d.Seconds())
}

// medianOpSeconds averages the per-configuration median op times, so the
// figure does not depend on how many operations of each configuration
// fit in the run.
func (l *opLog) medianOpSeconds(configs []*episodeConfig) float64 {
	var meds []float64
	for _, c := range configs {
		if xs := l.perConfig[c]; len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

// rates are frames and fused frames per second over one cycle of the
// configurations at their median op times.
func (l *opLog) rates(configs []*episodeConfig) (frames, fused float64) {
	var secs float64
	for _, c := range configs {
		xs := l.perConfig[c]
		if len(xs) == 0 {
			return 0, 0 // a configuration never succeeded
		}
		secs += median(xs)
		for _, f := range c.ref.frames {
			frames++
			if f.SenderFrame >= 0 {
				fused++
			}
		}
	}
	return frames / secs, fused / secs
}

// cycles runs whole cycles over the configurations — every configuration
// once per cycle, so the mix never depends on where the clock stops —
// until the duration has passed, and at least one cycle.
func (b *episodeBench) cycles(d time.Duration, each func(c *episodeConfig)) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		for _, c := range b.configs {
			each(c)
		}
	}
}

// endToEnd is the untraced pass: Workers = 2, whole cycles for the run
// length.
func (b *episodeBench) endToEnd(p params, setup float64) *result {
	var log opLog
	runtime.GC() // start the loop from the same heap state every run
	b.cycles(p.seconds, func(c *episodeConfig) {
		d, err := b.op(c, 2)
		log.record(c, d, err)
	})
	logFailure(b.name, log.firstErr)

	values := b.qualityValues()
	values["setup_s"] = setup
	values["frames_per_s"], values["rounds_per_s"] = log.rates(b.configs)
	values["episode_s_p50"] = log.medianOpSeconds(b.configs)
	values["max_rss_mb"] = maxRSSMB()
	return newResult(log.attempted, log.failed, values)
}

// qualityValues are the deterministic end-to-end figures, taken from the
// reference rows of every configuration once: fused recall and precision,
// wire bytes, and the modelled DSRC round and per-sender slot latencies.
func (b *episodeBench) qualityValues() map[string]float64 {
	var recall, precision, roundMS, slotMS []float64
	var bytes, senders, fused int
	ch := network.HighRateDSRC()
	for _, c := range b.configs {
		res := core.EpisodeResult{Frames: c.ref.frames}
		recall = append(recall, res.MeanCoopRecall())
		precision = append(precision, res.MeanCoopPrecision())
		for _, f := range c.ref.frames {
			if f.SenderFrame < 0 || f.Senders == 0 {
				continue
			}
			fused++
			bytes += f.PayloadBytes
			senders += f.Senders
			roundMS = append(roundMS, ms(f.RoundLatency))
			slotMS = append(slotMS, ms(ch.TransmitTime(f.PayloadBytes/f.Senders)))
		}
	}
	v := map[string]float64{
		"coop_recall":    mean(recall),
		"coop_precision": mean(precision),
		"round_ms_p50":   median(roundMS),
		"round_ms_p95":   quantile(roundMS, 0.95),
		"publish_ms_p50": median(slotMS),
		"publish_ms_p95": quantile(slotMS, 0.95),
	}
	if senders > 0 {
		v["wire_kb_per_frame"] = float64(bytes) / float64(senders) / 1000
	}
	if fused > 0 {
		v["round_kb"] = float64(bytes) / float64(fused) / 1000
	}
	return v
}

// traced is the per-layer pass: an untraced Workers = 1 pass under the
// CPU profiler, then the traced mirror for the same time, every mirrored
// operation gated on fidelity to the reference rows.
func (b *episodeBench) traced(p params) (*result, error) {
	half := p.seconds / 2
	var untraced opLog
	prof, err := profileCPU(filepath.Join(p.outDir, b.name+".cpu.pprof"), func() {
		b.cycles(half, func(c *episodeConfig) {
			d, err := b.op(c, 1)
			untraced.record(c, d, err)
		})
	})
	if err != nil {
		return nil, err
	}
	logFailure(b.name+" (untraced, 1 worker)", untraced.firstErr)

	// A configuration on a shared lab gets a shared mirror lab, warmed
	// like the workload's; one without gets a new mirror lab per run.
	labs := make(map[*core.EpisodeLab]*mirrorLab)
	mirrorLabFor := func(c *episodeConfig) *mirrorLab {
		if c.lab == nil {
			return newMirrorLab(c.sc)
		}
		if labs[c.lab] == nil {
			labs[c.lab] = newMirrorLab(c.sc)
		}
		return labs[c.lab]
	}
	for _, c := range b.configs {
		if c.lab == nil {
			continue
		}
		if _, err := mirrorLabFor(c).run(nil, c.opts, nil); err != nil {
			return nil, fmt.Errorf("%s: warming the mirror: %w", c.name, err)
		}
	}

	t := newTracer()
	var traced opLog
	checked := 0
	b.cycles(half, func(c *episodeConfig) {
		t.nextOp()
		start := time.Now()
		sink, err := store.NewEpisodeWriter(sha256.New(), c.header())
		var rows []mirrorRow
		if err == nil {
			rows, err = mirrorLabFor(c).run(t, c.opts, sink)
		}
		if err == nil {
			t.begin("store", "EpisodeWriter.Close")
			err = sink.Close()
			t.end()
		}
		d := time.Since(start)
		if err == nil {
			t.add("store.bytes", float64(sink.Bytes()))
			err = checkMirror(c, rows)
			checked += len(rows)
		}
		traced.record(c, d, err)
	})
	logFailure(b.name+" (traced mirror)", traced.firstErr)
	if err := t.dump(p.outDir, b.name+".spans.json"); err != nil {
		return nil, err
	}

	values := make(map[string]float64)
	ops := traced.attempted - traced.failed
	t.layerValues(values, ops)
	episodeLayerValues(t, values, ops)
	for _, l := range layers {
		values[l+".cpu_pct"] = prof[l]
	}
	values["trace.untraced_op_ms"] = untraced.medianOpSeconds(b.configs) * 1000
	values["trace.traced_op_ms"] = traced.medianOpSeconds(b.configs) * 1000
	values["trace.overhead_pct"] = overheadPct(values["trace.untraced_op_ms"], values["trace.traced_op_ms"])
	values["trace.fidelity_checked"] = float64(checked)
	printLayerTable(b.name, values)
	return newResult(untraced.attempted+traced.attempted, untraced.failed+traced.failed, values), nil
}

// checkMirror is the fidelity gate: the mirror's rows must equal the
// untraced Run's reference rows frame by frame.
func checkMirror(c *episodeConfig, rows []mirrorRow) error {
	if len(rows) != len(c.ref.frames) {
		return checkf("%s: mirror produced %d frames, Run %d", c.name, len(rows), len(c.ref.frames))
	}
	for k, r := range rows {
		f := c.ref.frames[k]
		want := mirrorRow{payloadBytes: f.PayloadBytes, senders: f.Senders, lost: f.Lost, dets: c.ref.dets[k], recall: f.Coop.Recall()}
		if r != want {
			return checkf("%s frame %d: mirror %+v, Run %+v", c.name, k, r, want)
		}
	}
	return nil
}

// episodeLayerValues fills the layer-specific metrics of the episode
// workloads; the hub-only ones are zero.
func episodeLayerValues(t *tracer, v map[string]float64, ops int) {
	perOp := func(name string) float64 {
		if ops == 0 {
			return 0
		}
		return t.sums[name] / float64(ops)
	}
	v["lidar.points"] = t.ratio("lidar.points", "lidar.scans")
	v["pointcloud.bytes_per_point"] = t.ratio("pointcloud.bytes", "pointcloud.points")
	v["pointcloud.delta_ratio"] = t.ratio("pointcloud.delta_bytes", "pointcloud.delta_full_bytes")
	v["network.delivered_ratio"] = t.ratio("network.delivered", "network.slots")
	v["network.transport_ms"] = 0
	for _, s := range []string{"preprocess", "voxel", "conv", "proposal", "fit"} {
		v["spod."+s+"_ms"] = t.ratio("spod."+s, "spod.detects")
	}
	v["spod.points_in"] = t.ratio("spod.points_in", "spod.detects")
	v["spod.voxels"] = t.ratio("spod.voxels", "spod.detects")
	v["spod.dets_per_proposal"] = t.ratio("spod.dets", "spod.proposals")
	v["fusion.encode_ms"] = t.ratio("fusion.encode", "fusion.encodes")
	v["fusion.fuse_ms"] = t.ratio("fusion.fuse", "fusion.fuses")
	v["fusion.icp_corrections"] = perOp("fusion.icp_corrections")
	v["core.compensate_ms"] = t.ratio("core.compensate", "core.compensates")
	v["core.truth_ms"] = t.ratio("core.truth", "core.truths")
	v["roi.select_ms"], v["roi.downsampled_ratio"] = 0, 0
	v["hub.publish_ms"], v["hub.assemble_ms"], v["hub.stale_ratio"], v["hub.keyframe_retries"] = 0, 0, 0, 0
	v["track.live"] = perOp("track.live")
	v["store.bytes_per_frame"] = t.ratio("store.bytes", "frames")
}

// overheadPct is the traced pass's extra time per operation over the
// untraced pass, in percent.
func overheadPct(untracedMS, tracedMS float64) float64 {
	if untracedMS == 0 {
		return 0
	}
	return (tracedMS/untracedMS - 1) * 100
}
