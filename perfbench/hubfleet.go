package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/hub"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/scene"
	"cooper/internal/spod"
	"cooper/internal/telemetry"
)

// hub-fleet: a hub.Hub over loopback TCP serving a generated fleet. Two
// client sessions each run a closed loop — publish the session's own
// frame on the CPD1 delta stream, then request a capped fusion round —
// while the frames of the other vehicles go in through in-process
// Hub.Publish, the function a session's frame handler calls. The cap is
// low enough that every sender leaves the full-frame ROI rung, so each
// round refits every served frame.

// hubBudgetBps is the requesters' bandwidth cap.
const hubBudgetBps = 2_000_000

// hubSession is one client session and the in-process vehicles it
// publishes for.
type hubSession struct {
	vehicle int
	fleet   []int // vehicles published in-process by this session's loop
	client  *hub.Client
	enc     map[int]*pointcloud.DeltaEncoder
	pubs    uint64 // publishes so far: the stream's sequence number
	tick    int
	// Wire bytes and frames over the streams' first pass, which starts
	// from fresh encoders and so repeats exactly.
	firstPassBytes, firstPassFrames int
}

type servedKey struct {
	sender string
	gps    geom.Vec3
}

// hubBench is hub-fleet's state.
type hubBench struct {
	sc       *scene.Scenario
	ticks    int
	hz       float64
	k        int
	labels   []string
	frames   [][]fusion.SensorFrame // [tick][vehicle]: cloud, capture state, detector
	h        *hub.Hub
	ln       *network.Listener
	serveErr chan error // Serve's result, once the hub closes
	sessions []*hubSession

	// Expected output, from the oracle: every (sender, tick) frame's
	// served payload digest, and the tick a served state belongs to.
	want   map[servedKey][sha256.Size]byte
	tickOf map[servedKey]int
	// Deterministic quality figures from the oracle rounds.
	recall, precision, roundKB float64
	// probes caches the traced pass's ROI sources by tick and vehicle:
	// the cloud as the hub caches it (decoded from its quantized encode)
	// and its features once derived, as the hub derives them once per
	// cached frame.
	probes map[[2]int]*probeSource
	// transportMS is each traced round's client time not spent in
	// assembly or the message codec.
	transportMS []float64

	// corrupt, when set, alters every served round before it is checked;
	// the tests use it to prove that a bad payload counts as failed.
	corrupt func([]hub.RoundFrame)
}

func hubSize(p params) (fleet, ticks int) {
	if p.tiny {
		return 4, 2
	}
	return 8, 8
}

// newHubFleet senses the fleet's frames, starts the hub on loopback,
// connects the two sessions and publishes tick 0 for every vehicle.
func newHubFleet(p params) (*hubBench, error) {
	fleet, ticks := hubSize(p)
	sc, err := generate("intersection", fleet, p.seed, len(episodeFamilies))
	if err != nil {
		return nil, err
	}
	b := &hubBench{sc: sc, ticks: ticks, hz: 4, k: fleet - 1, labels: sc.PoseLabels}
	type job struct{ tick, vehicle int }
	var jobs []job
	for f := 0; f < ticks; f++ {
		for i := 0; i < fleet; i++ {
			jobs = append(jobs, job{f, i})
		}
	}
	sensed, err := parallel.MapErr(2, len(jobs), func(j int) (fusion.SensorFrame, error) {
		f, i := jobs[j].tick, jobs[j].vehicle
		snap := sc.At(b.at(f))
		v := core.PoseVehicleSeeded(snap, i, sc.Seed+int64(i)*997+int64(f)*100003).SetWorkers(1)
		v.Sense(snap.Scene.Targets(), snap.Scene.GroundZ)
		return v.SensorFrame(nil)
	})
	if err != nil {
		return nil, err
	}
	b.frames = make([][]fusion.SensorFrame, ticks)
	for j, fr := range sensed {
		b.frames[jobs[j].tick] = append(b.frames[jobs[j].tick], fr)
	}

	b.h = hub.New(hub.Config{Metrics: telemetry.New()})
	if b.ln, err = network.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	b.serveErr = make(chan error, 1)
	go func() { b.serveErr <- b.h.Serve(b.ln) }()

	// Sessions 0 and 1 are vehicles 0 and 1; the rest split between them.
	for s := 0; s < 2; s++ {
		sess := &hubSession{vehicle: s, enc: make(map[int]*pointcloud.DeltaEncoder)}
		for i := 2 + s; i < fleet; i += 2 {
			sess.fleet = append(sess.fleet, i)
			sess.enc[i] = &pointcloud.DeltaEncoder{}
		}
		c, _, err := hub.Connect(b.ln.Addr(), b.labels[s], b.frames[0][s].State)
		if err != nil {
			b.close()
			return nil, err
		}
		sess.client = c
		b.sessions = append(b.sessions, sess)
	}
	for _, sess := range b.sessions {
		if err := b.publish(nil, sess); err != nil {
			b.close()
			return nil, fmt.Errorf("priming the hub: %w", err)
		}
	}
	return b, nil
}

func (b *hubBench) at(tick int) time.Duration {
	return time.Duration(float64(tick) / b.hz * float64(time.Second))
}

// close ends the sessions and stops the hub, waiting for its goroutines.
func (b *hubBench) close() {
	for _, s := range b.sessions {
		s.client.Close()
	}
	b.h.Close()
	if b.serveErr != nil {
		<-b.serveErr
	}
}

// publish publishes a session's frames at its current tick: the fleet
// frames in-process, then the session's own frame over TCP.
func (b *hubBench) publish(t *tracer, s *hubSession) error {
	f := s.tick
	s.pubs++
	firstPass := s.pubs <= uint64(b.ticks)
	for _, v := range s.fleet {
		fr := b.frames[f][v]
		t.begin("pointcloud", "DeltaEncoder.Encode")
		payload, _, err := s.enc[v].Encode(fr.Cloud, s.pubs)
		t.end()
		if err != nil {
			return err
		}
		t.add("pointcloud.bytes", float64(len(payload)))
		t.add("pointcloud.points", float64(fr.Cloud.Len()))
		t.add("pointcloud.delta_bytes", float64(len(payload)))
		t.add("pointcloud.delta_full_bytes", float64(pointcloud.EncodedSizeQuantized(fr.Cloud.Len())))
		if firstPass {
			s.firstPassBytes += len(payload)
			s.firstPassFrames++
		}
		start := time.Now()
		t.begin("hub", "Hub.Publish")
		_, err = b.h.Publish(b.labels[v], fr.State, payload, s.pubs)
		t.end()
		t.addDur("hub.publish", time.Since(start))
		t.add("hub.publishes", 1)
		if err != nil {
			return err
		}
	}
	own := b.frames[f][s.vehicle]
	t.begin("network", "Client.PublishDelta")
	_, wire, err := s.client.PublishDelta(own.State, own.Cloud)
	t.end()
	if err != nil {
		return err
	}
	if firstPass {
		s.firstPassBytes += wire
		s.firstPassFrames++
	}
	return nil
}

// write is a session's write half: advance to the next tick and publish
// its frames, timed whole — the fleet frames' encodes and in-process
// publishes and the session's own publish over TCP. A failure is carried
// to the iteration's read half, which closes the iteration.
func (b *hubBench) write(t *tracer, s *hubSession, l *sessionLog) {
	l.iterStart = time.Now()
	s.tick = (s.tick + 1) % b.ticks
	err := b.publish(t, s)
	l.iterPublish, l.iterFrames, l.iterErr = time.Since(l.iterStart), len(s.fleet)+1, err
}

// read is a session's read half: request a capped round at the session's
// tick, check it, and close the iteration.
func (b *hubBench) read(t *tracer, s *hubSession, l *sessionLog) {
	own := b.frames[s.tick][s.vehicle]
	start := time.Now()
	t.begin("network", "Client.RequestRound")
	served, err := s.client.RequestRound(own.State, b.k, hubBudgetBps)
	t.end()
	round := time.Since(start)
	var probe time.Duration
	if err == nil {
		if t != nil {
			probe = b.probeRound(t, s, own.State, round)
		}
		if b.corrupt != nil {
			b.corrupt(served)
		}
		err = b.checkRound(s, served)
	}
	if l.iterErr != nil {
		err = l.iterErr
	}
	l.attempted++
	l.frames += l.iterFrames
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	} else {
		if l.iterFrames > 0 {
			l.publishMS = append(l.publishMS, ms(l.iterPublish))
			l.opMS = append(l.opMS, ms(time.Since(l.iterStart)-probe))
		}
		l.roundMS = append(l.roundMS, ms(round))
	}
	if s.tick == b.ticks-1 {
		now := time.Now()
		if !l.passStart.IsZero() {
			l.passS = append(l.passS, now.Sub(l.passStart).Seconds())
		}
		l.passStart = now
	}
	l.iterFrames, l.iterErr = 0, nil
}

// checkRound verifies a served round: every other vehicle, nearest first
// in slot order (sender ID breaking ties), each payload byte-identical to
// the oracle's refit of that sender's frame and decodable.
func (b *hubBench) checkRound(s *hubSession, served []hub.RoundFrame) error {
	if len(served) != b.k {
		return checkf("round for %s served %d senders, want %d", b.labels[s.vehicle], len(served), b.k)
	}
	at := b.frames[s.tick][s.vehicle].State.GPS
	seen := make(map[string]bool, len(served))
	for i, rf := range served {
		if rf.Sender == b.labels[s.vehicle] || seen[rf.Sender] {
			return checkf("slot %d: unexpected sender %q", i, rf.Sender)
		}
		seen[rf.Sender] = true
		key := servedKey{rf.Sender, rf.State.GPS}
		want, ok := b.want[key]
		if !ok {
			return checkf("slot %d: %s served a state it never published", i, rf.Sender)
		}
		if sha256.Sum256(rf.Payload) != want {
			return checkf("slot %d: %s's payload differs from its refit", i, rf.Sender)
		}
		if err := decodes(rf.Payload); err != nil {
			return checkf("slot %d: %s's payload does not decode: %v", i, rf.Sender, err)
		}
		if i > 0 {
			prev := served[i-1]
			dp, dc := prev.State.GPS.DistXY(at), rf.State.GPS.DistXY(at)
			if dc < dp || (dc == dp && rf.Sender < prev.Sender) {
				return checkf("slot %d: %s served after %s out of nearest-first order", i, rf.Sender, prev.Sender)
			}
		}
	}
	return nil
}

// decodes reports whether a served payload decodes as what it claims.
func decodes(payload []byte) error {
	if spod.IsFeaturePayload(payload) {
		_, err := spod.DecodeFeatureFrame(payload)
		return err
	}
	_, err := pointcloud.Decode(payload)
	return err
}

// oracle assembles, in a separate in-process hub per tick, the capped
// round each session vehicle would get with every vehicle at that tick.
// It records every sender frame's expected payload, checks the cap
// pushed every sender off the full-frame rung, and fuses and scores each
// oracle round for the quality figures.
func (b *hubBench) oracle() error {
	b.want = make(map[servedKey][sha256.Size]byte)
	b.tickOf = make(map[servedKey]int)
	var recall, precision []float64
	var roundBytes, rounds int
	scratch := spod.NewScratch()
	for f := 0; f < b.ticks; f++ {
		oh := hub.New(hub.Config{})
		for i, fr := range b.frames[f] {
			q, err := pointcloud.EncodeQuantized(fr.Cloud)
			if err != nil {
				return err
			}
			if _, err := oh.Publish(b.labels[i], fr.State, q, 1); err != nil {
				return err
			}
			key := servedKey{b.labels[i], fr.State.GPS}
			if _, dup := b.tickOf[key]; dup {
				return fmt.Errorf("%s has the same position at two ticks", b.labels[i])
			}
			b.tickOf[key] = f
		}
		snap := b.sc.At(b.at(f))
		for _, s := range b.sessions {
			recv := b.frames[f][s.vehicle]
			r, err := oh.AssembleRound(b.labels[s.vehicle], recv.State.GPS, b.k, hubBudgetBps)
			if err != nil {
				return err
			}
			participants := []int{s.vehicle}
			payloads := make([]fusion.Payload, 0, len(r.Frames))
			for _, rf := range r.Frames {
				if rf.Category == roi.CategoryFullFrame {
					return fmt.Errorf("tick %d: %s still fits the full frame under the cap", f, rf.Sender)
				}
				key := servedKey{rf.Sender, rf.State.GPS}
				sum := sha256.Sum256(rf.Payload)
				if prev, ok := b.want[key]; ok && prev != sum {
					return fmt.Errorf("tick %d: %s's refit depends on the requester", f, rf.Sender)
				}
				b.want[key] = sum
				roundBytes += len(rf.Payload)
				payloads = append(payloads, fusion.Payload{SenderID: rf.Sender, State: rf.State, Data: rf.Payload})
				participants = append(participants, b.poseOf(rf.Sender))
			}
			rounds++
			in, err := fusion.RawBackend{}.Fuse(recv, payloads)
			if err != nil {
				return err
			}
			dets, _ := in.Detect(recv.Detector.Config(), scratch)
			st := core.EvaluateDetections(snap, s.vehicle, participants, dets)
			recall = append(recall, st.Recall())
			precision = append(precision, st.Precision())
		}
	}
	b.recall, b.precision = mean(recall), mean(precision)
	b.roundKB = float64(roundBytes) / float64(rounds) / 1000
	return nil
}

func (b *hubBench) poseOf(label string) int {
	for i, l := range b.labels {
		if l == label {
			return i
		}
	}
	return -1
}

func runHubFleet(p params) (*result, error) {
	b, setup, err := timedSetup(func() (*hubBench, error) { return newHubFleet(p) }, (*hubBench).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.oracle(); err != nil {
		return nil, err
	}
	if p.trace {
		return b.traced(p)
	}
	return b.endToEnd(p, setup), nil
}

// sessionLog is one session's samples and its open iteration.
type sessionLog struct {
	attempted, failed int
	frames            int
	publishMS         []float64
	roundMS           []float64
	opMS              []float64 // whole iterations, probes excluded
	passS             []float64
	firstErr          error

	iterStart   time.Time
	iterPublish time.Duration
	iterFrames  int
	iterErr     error
	passStart   time.Time // zero until the first whole pass begins
}

// endToEnd is the untraced pass. The two sessions run in anti-phase
// lockstep: while one writes, the other reads, then they swap, so writes
// always run beside reads. Left to run freely, the two closed loops
// phase-lock at random into one of two modes (round p50 about 21 or
// 31 ms), which made run-to-run figures bimodal.
func (b *hubBench) endToEnd(p params, setup float64) *result {
	logs := make([]sessionLog, len(b.sessions))
	a, c := b.sessions[0], b.sessions[1]
	runtime.GC() // start the loop from the same heap state every run
	start := time.Now()
	// Run at least one whole iteration, and end after an odd phase, so
	// the first session's last write has had its read.
	for phase := 0; phase < 2 || phase%2 == 1 || time.Since(start) < p.seconds; phase++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if phase%2 == 0 {
				b.write(nil, a, &logs[0])
			} else {
				b.read(nil, a, &logs[0])
			}
		}()
		go func() {
			defer wg.Done()
			if phase%2 == 0 {
				b.read(nil, c, &logs[1])
			} else {
				b.write(nil, c, &logs[1])
			}
		}()
		wg.Wait()
	}
	elapsed := time.Since(start).Seconds()

	var all sessionLog
	for _, l := range logs {
		all.attempted += l.attempted
		all.failed += l.failed
		all.frames += l.frames
		all.publishMS = append(all.publishMS, l.publishMS...)
		all.roundMS = append(all.roundMS, l.roundMS...)
		all.passS = append(all.passS, l.passS...)
		if all.firstErr == nil {
			all.firstErr = l.firstErr
		}
	}
	logFailure("hub-fleet", all.firstErr)
	values := b.qualityValues()
	values["setup_s"] = setup
	values["frames_per_s"] = float64(all.frames) / elapsed
	values["rounds_per_s"] = float64(all.attempted-all.failed) / elapsed
	values["episode_s_p50"] = median(all.passS)
	values["round_ms_p50"] = median(all.roundMS)
	values["round_ms_p95"] = quantile(all.roundMS, 0.95)
	values["publish_ms_p50"] = median(all.publishMS)
	values["publish_ms_p95"] = quantile(all.publishMS, 0.95)
	values["max_rss_mb"] = maxRSSMB()
	return newResult(all.attempted, all.failed, values)
}

func (b *hubBench) qualityValues() map[string]float64 {
	var bytes, frames int
	for _, s := range b.sessions {
		bytes += s.firstPassBytes
		frames += s.firstPassFrames
	}
	return map[string]float64{
		"coop_recall":       b.recall,
		"coop_precision":    b.precision,
		"round_kb":          b.roundKB,
		"wire_kb_per_frame": float64(bytes) / float64(frames) / 1000,
	}
}

// traced is the per-layer pass: one goroutine alternating the two
// sessions, untraced under the CPU profiler, then traced for the same
// time.
func (b *hubBench) traced(p params) (*result, error) {
	half := p.seconds / 2
	alternate := func(t *tracer, d time.Duration, l *sessionLog) {
		start := time.Now()
		for first := true; first || time.Since(start) < d; first = false {
			for _, s := range b.sessions {
				t.nextOp()
				b.write(t, s, l)
				b.read(t, s, l)
			}
		}
	}
	var untraced sessionLog
	prof, err := profileCPU(filepath.Join(p.outDir, "hub-fleet.cpu.pprof"), func() { alternate(nil, half, &untraced) })
	if err != nil {
		return nil, err
	}
	logFailure("hub-fleet (untraced, 1 worker)", untraced.firstErr)

	t := newTracer()
	b.probes = make(map[[2]int]*probeSource)
	var traced sessionLog
	alternate(t, half, &traced)
	logFailure("hub-fleet (traced)", traced.firstErr)
	if err := t.dump(p.outDir, "hub-fleet.spans.json"); err != nil {
		return nil, err
	}

	var retries uint64
	for _, s := range b.sessions {
		retries += s.client.KeyframeRetries()
	}
	values := make(map[string]float64)
	ops := traced.attempted - traced.failed
	t.layerValues(values, ops)
	for _, l := range layers {
		values[l+".cpu_pct"] = prof[l]
	}
	for _, name := range []string{
		"lidar.points", "spod.preprocess_ms", "spod.voxel_ms", "spod.conv_ms", "spod.proposal_ms", "spod.fit_ms",
		"spod.points_in", "spod.voxels", "spod.dets_per_proposal", "fusion.encode_ms", "fusion.fuse_ms",
		"fusion.icp_corrections", "core.compensate_ms", "core.truth_ms", "track.live", "store.bytes_per_frame",
	} {
		values[name] = 0
	}
	values["pointcloud.bytes_per_point"] = t.ratio("pointcloud.bytes", "pointcloud.points")
	values["pointcloud.delta_ratio"] = t.ratio("pointcloud.delta_bytes", "pointcloud.delta_full_bytes")
	values["network.delivered_ratio"] = t.ratio("hub.served", "hub.requested")
	// A difference of two timings of similar size: the median resists
	// the probe's own noise better than the mean.
	values["network.transport_ms"] = median(b.transportMS)
	values["roi.select_ms"] = t.ratio("roi.select", "roi.selects")
	values["roi.downsampled_ratio"] = t.ratio("roi.downsampled", "roi.selects")
	values["hub.publish_ms"] = t.ratio("hub.publish", "hub.publishes")
	values["hub.assemble_ms"] = t.ratio("hub.assemble", "hub.assembles")
	values["hub.stale_ratio"] = t.ratio("hub.stale", "hub.served")
	values["hub.keyframe_retries"] = float64(retries)
	values["trace.untraced_op_ms"] = median(untraced.opMS)
	values["trace.traced_op_ms"] = median(traced.opMS)
	values["trace.overhead_pct"] = overheadPct(values["trace.untraced_op_ms"], values["trace.traced_op_ms"])
	values["trace.fidelity_checked"] = float64(ops)
	printLayerTable("hub-fleet", values)
	return newResult(untraced.attempted+traced.attempted, untraced.failed+traced.failed, values), nil
}

// probeRound attributes a served round's time. The refits and assembly
// ran on the hub's session goroutine, out of the client span's reach, so
// the traced pass re-runs them in-process beside the client call — the
// same AssembleRoundSince on the same cache, the same roi.Select per
// served frame, the same message codec — and books them to their
// layers. The client round's remainder is transport. It returns the
// probes' wall time, which the traced pass does not count as round time.
func (b *hubBench) probeRound(t *tracer, s *hubSession, state fusion.VehicleState, round time.Duration) time.Duration {
	probeStart := time.Now()
	start := time.Now()
	t.begin("hub", "Hub.AssembleRoundSince")
	r, err := b.h.AssembleRoundSince(b.labels[s.vehicle], state.GPS, b.k, hubBudgetBps, s.pubs)
	t.end()
	assemble := time.Since(start)
	t.addDur("hub.assemble", assemble)
	t.add("hub.assembles", 1)
	if err != nil {
		return time.Since(probeStart)
	}
	t.add("hub.requested", float64(b.k))
	t.add("hub.served", float64(len(r.Frames)))
	t.add("hub.stale", float64(len(r.Stale)))

	// The refits inside AssembleRoundSince, measured again one by one at
	// the per-sender budget the hub splits the cap into.
	perSender := int(float64(hubBudgetBps)/8/network.DefaultScheduler().RateHz) / len(r.Frames)
	var refit time.Duration
	var refitAllocs uint64
	for _, rf := range r.Frames {
		src, err := b.source(rf)
		if err != nil {
			break
		}
		before := len(t.spans)
		start := time.Now()
		t.begin("roi", "roi.Select")
		sel, err := roi.Select(src, perSender)
		t.end()
		refit += time.Since(start)
		refitAllocs += t.spans[before].Allocs
		t.add("roi.selects", 1)
		if err == nil && sel.Downsampled {
			t.add("roi.downsampled", 1)
		}
	}
	t.addDur("roi.select", refit)
	t.shift("hub", refit, refitAllocs)

	// The message codec the round crossed the wire in.
	start = time.Now()
	t.begin("network", "message codec")
	msgs := []network.Message{{Type: network.MsgFuseReply, Sender: "hub", Count: uint32(len(r.Frames))}}
	for slot, rf := range r.Frames {
		msgs = append(msgs, network.Message{Type: network.MsgFrame, Sender: rf.Sender, State: rf.State, Payload: rf.Payload, Seq: uint64(slot)})
	}
	for _, m := range msgs {
		data, err := network.EncodeMessage(m)
		if err == nil {
			_, err = network.DecodeMessage(data)
		}
		if err != nil {
			break
		}
	}
	t.end()
	codec := time.Since(start)
	// The client span already holds the server-side assembly it waited
	// for; move that share out of network's self time.
	t.shift("network", assemble, 0)
	b.transportMS = append(b.transportMS, ms(round-assemble-codec))
	return time.Since(probeStart)
}

// probeSource is a served frame's ROI selection source as the hub holds
// it.
type probeSource struct {
	cloud *pointcloud.Cloud
	feat  *spod.FeatureFrame
}

// source is the ROI selection source of a served frame, built the way
// the hub builds it from its cache.
func (b *hubBench) source(rf hub.RoundFrame) (roi.Source, error) {
	id := [2]int{b.tickOf[servedKey{rf.Sender, rf.State.GPS}], b.poseOf(rf.Sender)}
	ps := b.probes[id]
	if ps == nil {
		q, err := pointcloud.EncodeQuantized(b.frames[id[0]][id[1]].Cloud)
		if err != nil {
			return roi.Source{}, err
		}
		cloud, err := pointcloud.Decode(q)
		if err != nil {
			return roi.Source{}, err
		}
		ps = &probeSource{cloud: cloud}
		b.probes[id] = ps
	}
	return roi.Source{Cloud: ps.cloud, Derive: func() *spod.FeatureFrame {
		if ps.feat == nil {
			ps.feat = spod.NewDefault().EncodeFeatureFrame(ps.cloud, nil).Prune(fusion.DefaultFeatureBackend().TransmitFloor)
		}
		return ps.feat
	}}, nil
}
