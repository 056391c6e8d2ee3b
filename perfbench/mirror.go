package main

import (
	"bytes"
	"fmt"
	"time"

	"cooper/internal/core"
	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
	"cooper/internal/sim"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/track"
)

// The traced episode pass. EpisodeLab.Run is opaque from outside, so the
// mirror below replays it from the same public functions, in Run's order,
// with a span around every call into a layer. It runs on one goroutine.
// Its per-frame rows must equal the untraced Run's (the fidelity gate in
// checkMirror); if they do not, the traced pass measured a different
// program and the run fails.

// mirrorCapture is one cached capture, as EpisodeLab caches it.
type mirrorCapture struct {
	scan    lidar.Scan
	pose    geom.Transform
	payload []byte // quantized encode of the cropped capture

	dets     []spod.Detection // single-shot detections, once computed
	detsDone bool

	feat     []byte // feature-backend encode, once computed
	featDone bool
}

type captureKey struct {
	pose int
	at   time.Duration
}

// mirrorLab is the mirror's capture cache: a fresh one per operation
// mirrors episode-fresh, a shared warmed one mirrors episode-sweep.
type mirrorLab struct {
	sc   *scene.Scenario
	caps map[captureKey]*mirrorCapture
}

func newMirrorLab(sc *scene.Scenario) *mirrorLab {
	return &mirrorLab{sc: sc, caps: make(map[captureKey]*mirrorCapture)}
}

// mirrorRow is what the fidelity gate compares per frame.
type mirrorRow struct {
	payloadBytes, senders, lost, dets int
	recall                            float64
}

func (m *mirrorLab) detectorConfig() spod.Config {
	cfg := spod.DefaultConfig()
	cfg.VerticalFOVTop = m.sc.LiDAR.MaxElevation()
	cfg.MaxDetectionRange = core.AreaRange(m.sc.Dataset)
	cfg.Workers = 1
	return cfg
}

func (m *mirrorLab) cropFOV(c *pointcloud.Cloud) *pointcloud.Cloud {
	if m.sc.FrontFOV > 0 {
		return c.CropFOV(0, m.sc.FrontFOV/2)
	}
	return c
}

func (m *mirrorLab) stateAt(pose geom.Transform) fusion.VehicleState {
	return fusion.VehicleState{
		GPS: pose.T, Yaw: pose.R.Yaw(), Pitch: pose.R.Pitch(), Roll: pose.R.Roll(),
		MountHeight: m.sc.LiDAR.MountHeight,
	}
}

func (m *mirrorLab) poseLabel(i int) string {
	if i >= 0 && i < len(m.sc.PoseLabels) {
		return m.sc.PoseLabels[i]
	}
	return fmt.Sprintf("p%d", i)
}

// capture senses pose i at time at, once per lab.
func (m *mirrorLab) capture(t *tracer, i int, at time.Duration) (*mirrorCapture, error) {
	key := captureKey{i, at}
	if c, ok := m.caps[key]; ok {
		return c, nil
	}
	t.begin("scene", "Scenario.At")
	snap := m.sc.At(at)
	t.end()
	c := &mirrorCapture{pose: snap.Poses[i]}
	seed := m.sc.Seed + int64(i)*997 + int64(at/time.Millisecond)*1000003
	t.begin("lidar", "Scanner.ScanFrom")
	c.scan = lidar.NewScanner(m.sc.LiDAR, seed).SetWorkers(1).ScanFrom(c.pose, snap.Scene.Targets(), snap.Scene.GroundZ)
	t.end()
	t.add("lidar.points", float64(c.scan.Cloud.Len()))
	t.add("lidar.scans", 1)
	t.begin("pointcloud", "EncodeQuantized")
	payload, err := pointcloud.EncodeQuantized(m.cropFOV(c.scan.Cloud))
	t.end()
	if err != nil {
		return nil, err
	}
	t.add("pointcloud.bytes", float64(len(payload)))
	t.add("pointcloud.points", float64(m.cropFOV(c.scan.Cloud).Len()))
	c.payload = payload
	m.caps[key] = c
	return c, nil
}

// detect runs one traced detection and books its stage stats.
func detect(t *tracer, name string, run func() ([]spod.Detection, spod.Stats)) []spod.Detection {
	t.begin("spod", name)
	dets, st := run()
	t.end()
	t.addDur("spod.preprocess", st.PreprocessTime)
	t.addDur("spod.voxel", st.VoxelTime)
	t.addDur("spod.conv", st.ConvTime)
	t.addDur("spod.proposal", st.ProposalTime)
	t.addDur("spod.fit", st.FitTime)
	t.add("spod.points_in", float64(st.InputPoints))
	t.add("spod.voxels", float64(st.VoxelCount))
	t.add("spod.proposals", float64(st.ProposalCount))
	t.add("spod.dets", float64(len(dets)))
	t.add("spod.detects", 1)
	return dets
}

func (m *mirrorLab) singleDetect(t *tracer, c *mirrorCapture, s *spod.DetectorScratch) []spod.Detection {
	if !c.detsDone {
		c.dets = detect(t, "Detector.DetectWithStatsScratch", func() ([]spod.Detection, spod.Stats) {
			return spod.New(m.detectorConfig()).DetectWithStatsScratch(m.cropFOV(c.scan.Cloud), s)
		})
		c.detsDone = true
	}
	return c.dets
}

func (m *mirrorLab) payloadFor(t *tracer, c *mirrorCapture, backend fusion.Backend, det *spod.Detector, state fusion.VehicleState, s *spod.DetectorScratch) ([]byte, error) {
	if _, raw := backend.(fusion.RawBackend); raw {
		return c.payload, nil
	}
	if !c.featDone {
		p, err := encode(t, backend, fusion.SensorFrame{State: state, Cloud: m.cropFOV(c.scan.Cloud), Detector: det}, s)
		if err != nil {
			return nil, err
		}
		c.feat, c.featDone = p.Data, true
	}
	return c.feat, nil
}

func encode(t *tracer, backend fusion.Backend, f fusion.SensorFrame, s *spod.DetectorScratch) (fusion.Payload, error) {
	start := time.Now()
	t.begin("fusion", "Backend.Encode")
	p, err := backend.Encode(f, s)
	t.end()
	t.addDur("fusion.encode", time.Since(start))
	t.add("fusion.encodes", 1)
	return p, err
}

// run replays EpisodeLab.Run(opts) at one worker. sink, when non-nil,
// receives the same store records Run appends.
func (m *mirrorLab) run(t *tracer, opts core.EpisodeOptions, sink *store.EpisodeWriter) ([]mirrorRow, error) {
	sc := m.sc
	if opts.Hz <= 0 {
		opts.Hz = 10
	}
	c := sc.Cases[opts.Case]
	receiver := c.Receiver()
	senders := c.Senders()
	period := time.Duration(float64(time.Second) / opts.Hz)
	at := func(k int) time.Duration { return time.Duration(k) * period }

	backend := opts.Backend
	if backend == nil {
		backend = fusion.RawBackend{}
	}
	_, rawBackend := backend.(fusion.RawBackend)
	wireV3 := opts.Wire == "v3"
	if opts.Correct {
		rb := backend.(fusion.RawBackend)
		rb.UseICP = true
		backend = rb
	}
	participants := append([]int{receiver}, senders...)

	var walks map[int][]scene.PoseError
	if opts.Drift > 0 {
		walks = make(map[int][]scene.PoseError, len(participants))
		t.begin("scene", "DriftWalk")
		for _, p := range participants {
			walks[p] = scene.DriftWalk(sc.Seed*1000003+int64(p)*7919+11, opts.Drift, opts.Frames)
		}
		t.end()
	}
	stateFor := func(pose geom.Transform, p, k int) fusion.VehicleState {
		st := m.stateAt(pose)
		if walks != nil {
			e := walks[p][k]
			st.GPS.X += e.X
			st.GPS.Y += e.Y
			st.Yaw += e.Yaw
		}
		return st
	}

	// Phase 1 — captures, in Run's job order.
	for k := 0; k < opts.Frames; k++ {
		for _, p := range participants {
			if _, err := m.capture(t, p, at(k)); err != nil {
				return nil, err
			}
		}
	}
	det := spod.New(m.detectorConfig())
	scratch := spod.NewScratch()

	// Phase 1.5 — non-raw backends pre-encode every sender capture.
	if !rawBackend {
		for k := 0; k < opts.Frames; k++ {
			for _, s := range senders {
				e := m.caps[captureKey{s, at(k)}]
				if _, err := m.payloadFor(t, e, backend, det, stateFor(e.pose, s, k), scratch); err != nil {
					return nil, err
				}
			}
		}
	}

	// Phase 1.6 — wire v3 delta streams, reconstruction verified.
	var v3sizes [][]int
	var v3key [][]int
	var v3wire [][][]byte
	if wireV3 {
		v3sizes = make([][]int, opts.Frames)
		for k := range v3sizes {
			v3sizes[k] = make([]int, len(senders))
		}
		v3key = make([][]int, len(senders))
		v3wire = make([][][]byte, len(senders))
		for si := range senders {
			v3key[si] = make([]int, opts.Frames)
			v3wire[si] = make([][]byte, opts.Frames)
			enc := pointcloud.DeltaEncoder{Interval: opts.KeyframeInterval}
			var dec pointcloud.DeltaDecoder
			recon := &pointcloud.Cloud{}
			lastKey := 0
			for k := 0; k < opts.Frames; k++ {
				e := m.caps[captureKey{senders[si], at(k)}]
				t.begin("pointcloud", "DeltaEncoder.Encode")
				data, key, err := enc.Encode(m.cropFOV(e.scan.Cloud), uint64(k+1))
				t.end()
				if err != nil {
					return nil, err
				}
				if key {
					lastKey = k
				}
				v3key[si][k] = lastKey
				t.begin("pointcloud", "DeltaDecoder.DecodeInto")
				err = dec.DecodeInto(data, recon)
				t.end()
				if err != nil {
					return nil, err
				}
				t.begin("pointcloud", "EncodeQuantized")
				canonical, err := pointcloud.EncodeQuantized(recon)
				t.end()
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(canonical, e.payload) {
					return nil, fmt.Errorf("pose %d frame %d: delta reconstruction diverged", senders[si], k)
				}
				t.add("pointcloud.delta_bytes", float64(len(data)))
				t.add("pointcloud.delta_full_bytes", float64(len(e.payload)))
				v3sizes[k][si] = len(data)
				v3wire[si][k] = data
			}
		}
	}

	// Phase 2 — channel plans and the broadcast timeline.
	sched := network.Scheduler{Channel: network.HighRateDSRC(), RateHz: opts.Hz, ExtraDelay: opts.Delay}
	plans := make([]network.Plan, opts.Frames)
	for j := 0; j < opts.Frames; j++ {
		sizes := make([]int, len(senders))
		for si, s := range senders {
			if wireV3 {
				sizes[si] = v3sizes[j][si]
				continue
			}
			e := m.caps[captureKey{s, at(j)}]
			payload, err := m.payloadFor(t, e, backend, det, m.stateAt(e.pose), nil)
			if err != nil {
				return nil, err
			}
			sizes[si] = len(payload)
		}
		t.begin("network", "Scheduler.Plan")
		plans[j] = sched.Plan(sizes)
		t.end()
	}
	t.begin("network", "sim.Clock")
	clock := &sim.Clock{}
	available := -1
	rounds := make([]int, opts.Frames)
	for j := 0; j < opts.Frames; j++ {
		j := j
		clock.Schedule(at(j)+plans[j].Ready(), func(time.Duration) {
			if j > available {
				available = j
			}
		})
	}
	for k := 0; k < opts.Frames; k++ {
		k := k
		clock.Schedule(at(k), func(time.Duration) { rounds[k] = available })
	}
	for clock.Step() {
	}
	t.end()

	// Phase 2.5 — the loss model.
	sround := make([][]int, opts.Frames)
	if opts.Loss.Enabled() {
		lps := make([]network.LossyPlan, opts.Frames)
		t.begin("network", "LossModel.Round")
		for j := range lps {
			lps[j] = opts.Loss.Round(int64(j), plans[j])
		}
		t.end()
		for j := range lps {
			for si := range senders {
				t.add("network.slots", 1)
				if _, ok := lps[j].AvailableAt(si); ok {
					t.add("network.delivered", 1)
				}
			}
		}
		usableAt := func(j, si int) (time.Duration, bool) {
			d, ok := lps[j].AvailableAt(si)
			if !ok {
				return 0, false
			}
			tt := at(j) + d
			if wireV3 {
				if kj := v3key[si][j]; kj != j {
					kd, ok := lps[kj].AvailableAt(si)
					if !ok {
						return 0, false
					}
					if kt := at(kj) + kd; kt > tt {
						tt = kt
					}
				}
			}
			return tt, true
		}
		for k := range sround {
			sround[k] = make([]int, len(senders))
			for si := range senders {
				best := -1
				for j := 0; j <= k; j++ {
					if tt, ok := usableAt(j, si); ok && tt <= at(k) {
						best = j
					}
				}
				sround[k][si] = best
			}
		}
	} else {
		t.add("network.slots", float64(opts.Frames*len(senders)))
		t.add("network.delivered", float64(opts.Frames*len(senders)))
		for k := range sround {
			sround[k] = make([]int, len(senders))
			for si := range senders {
				sround[k][si] = rounds[k]
			}
		}
	}

	// Phase 3 — per frame: compensate, encode, fuse, detect, score.
	detCfg := m.detectorConfig()
	type frameEval struct {
		frame     core.EpisodeFrame
		assoc     core.TruthAssoc
		worldDets []spod.Detection
		dets      []spod.Detection
		round     store.Round
	}
	evals := make([]frameEval, opts.Frames)
	for k := range evals {
		tk := at(k)
		t.begin("scene", "Scenario.At")
		snapEval := sc.At(tk)
		t.end()
		own := m.caps[captureKey{receiver, tk}]
		ownCloud := m.cropFOV(own.scan.Cloud)
		recvState := stateFor(own.pose, receiver, k)
		newest := -1
		for _, j := range sround[k] {
			if j > newest {
				newest = j
			}
		}
		fe := frameEval{frame: core.EpisodeFrame{Index: k, At: tk, SenderFrame: newest}}
		singles := m.singleDetect(t, own, scratch)

		var coopDets []spod.Detection
		if newest < 0 {
			coopDets = singles
			fe.assoc = truth(t, snapEval, receiver, nil, singles)
			fe.frame.Single = fe.assoc.Stats
			fe.frame.Coop = fe.assoc.Stats
			if sink != nil {
				fe.round = store.Round{
					Frame: k, Receiver: m.poseLabel(receiver), State: recvState,
					Own: ownCloud, Warmup: true,
					FOVTop: detCfg.VerticalFOVTop, MaxRange: detCfg.MaxDetectionRange,
				}
			}
		} else {
			fe.frame.Single = truth(t, snapEval, receiver, nil, singles).Stats
			fe.frame.RoundLatency = plans[newest].Ready()
			payloads := make([]fusion.Payload, 0, len(senders))
			deltaD := 0.0
			for si, s := range senders {
				j := sround[k][si]
				if j < 0 {
					continue
				}
				tj := at(j)
				if age := tk - tj; age > fe.frame.Staleness {
					fe.frame.Staleness = age
				}
				cp := m.caps[captureKey{s, tj}]
				payload, err := m.payloadFor(t, cp, backend, det, stateFor(cp.pose, s, j), scratch)
				if err != nil {
					return nil, err
				}
				if opts.Compensate {
					start := time.Now()
					t.begin("core", "CompensateScan")
					cloud := core.CompensateScan(sc, cp.scan, cp.pose, tj, tk)
					t.end()
					t.addDur("core.compensate", time.Since(start))
					t.add("core.compensates", 1)
					p, err := encode(t, backend, fusion.SensorFrame{
						State: stateFor(cp.pose, s, j), Cloud: m.cropFOV(cloud), Detector: det,
					}, scratch)
					if err != nil {
						return nil, err
					}
					payload = p.Data
				}
				if wireV3 {
					fe.frame.PayloadBytes += v3sizes[j][si]
				} else {
					fe.frame.PayloadBytes += len(payload)
				}
				payloads = append(payloads, fusion.Payload{SenderID: m.poseLabel(s), State: stateFor(cp.pose, s, j), Data: payload})
				if d := cp.pose.T.DistXY(own.pose.T); d > deltaD {
					deltaD = d
				}
			}
			fe.frame.Senders = len(payloads)
			fe.frame.Lost = len(senders) - len(payloads)
			start := time.Now()
			t.begin("fusion", "Backend.Fuse")
			in, err := backend.Fuse(fusion.SensorFrame{State: recvState, Cloud: ownCloud, Detector: det}, payloads)
			t.end()
			t.addDur("fusion.fuse", time.Since(start))
			t.add("fusion.fuses", 1)
			if err != nil {
				return nil, err
			}
			in.MaxDist = deltaD
			coopDets = detect(t, "FusedInput.Detect", func() ([]spod.Detection, spod.Stats) {
				return in.Detect(m.detectorConfig(), scratch)
			})
			t.add("fusion.icp_corrections", float64(len(in.ICPCorrections)))
			fe.assoc = truth(t, snapEval, receiver, participants, coopDets)
			fe.frame.Coop = fe.assoc.Stats
			if sink != nil {
				rp := make([]store.RoundPayload, len(payloads))
				for i, p := range payloads {
					rp[i] = store.RoundPayload{Sender: p.SenderID, State: p.State, Data: p.Data}
				}
				fe.round = store.Round{
					Frame: k, Receiver: m.poseLabel(receiver), State: recvState,
					Own: ownCloud, OverrideMaxDist: true, MaxDist: deltaD,
					FOVTop: detCfg.VerticalFOVTop, MaxRange: detCfg.MaxDetectionRange,
					LatencyUS:    fe.frame.RoundLatency.Microseconds(),
					StalenessUS:  fe.frame.Staleness.Microseconds(),
					PayloadBytes: int64(fe.frame.PayloadBytes),
					Lost:         fe.frame.Lost,
					Payloads:     rp,
				}
			}
		}
		fe.dets = coopDets
		t.begin("core", "WorldDetections")
		fe.worldDets = core.WorldDetections(coopDets, own.pose, sc.LiDAR.MountHeight)
		t.end()
		evals[k] = fe
	}

	// Phase 4 — tracker and store, in timeline order.
	tracker := track.New(track.DefaultConfig())
	rows := make([]mirrorRow, 0, opts.Frames)
	assocFrames := make([]eval.FrameAssoc, 0, opts.Frames)
	for k, fe := range evals {
		t.begin("track", "Tracker.Step")
		ids := tracker.Step(fe.frame.At, fe.worldDets)
		t.end()
		assocFrames = append(assocFrames, fe.assoc.FrameAssoc(ids))
		rows = append(rows, mirrorRow{
			payloadBytes: fe.frame.PayloadBytes, senders: fe.frame.Senders, lost: fe.frame.Lost,
			dets: len(fe.dets), recall: fe.frame.Coop.Recall(),
		})
		if sink == nil {
			continue
		}
		t.begin("store", "EpisodeWriter.Write")
		err := writeFrameRecords(sink, m, senders, k, fe.frame.At, fe.round, fe.dets, tracker, func(si, s int, e *mirrorCapture) ([]byte, fusion.VehicleState, error) {
			st := stateFor(e.pose, s, k)
			switch {
			case wireV3:
				return v3wire[si][k], st, nil
			case !rawBackend:
				p, err := m.payloadFor(nil, e, backend, det, st, nil)
				return p, st, err
			}
			return e.payload, st, nil
		})
		t.end()
		if err != nil {
			return nil, err
		}
	}
	t.begin("track", "eval.Temporal")
	eval.Temporal(assocFrames)
	t.end()
	t.add("track.live", float64(len(tracker.Tracks())))
	t.add("frames", float64(opts.Frames))
	return rows, nil
}

// truth scores detections against ground truth, traced.
func truth(t *tracer, snap *scene.Scenario, receiver int, participants []int, dets []spod.Detection) core.TruthAssoc {
	start := time.Now()
	t.begin("core", "EvaluateDetectionsAssoc")
	a := core.EvaluateDetectionsAssoc(snap, receiver, participants, dets)
	t.end()
	t.addDur("core.truth", time.Since(start))
	t.add("core.truths", 1)
	return a
}

// writeFrameRecords appends one frame's store records in Run's order:
// sender broadcasts, the receiver's round, its detections, track states.
func writeFrameRecords(sink *store.EpisodeWriter, m *mirrorLab, senders []int, k int, at time.Duration, round store.Round, dets []spod.Detection, tracker *track.Tracker,
	wire func(si, s int, e *mirrorCapture) ([]byte, fusion.VehicleState, error)) error {
	for si, s := range senders {
		e := m.caps[captureKey{s, at}]
		payload, st, err := wire(si, s, e)
		if err != nil {
			return err
		}
		if err := sink.WriteFrame(store.Frame{Frame: k, Sender: m.poseLabel(s), Seq: uint64(k + 1), State: st, Payload: payload}); err != nil {
			return err
		}
	}
	if err := sink.WriteRound(round); err != nil {
		return err
	}
	if err := sink.WriteDetections(store.Detections{Frame: k, Receiver: round.Receiver, Dets: dets}); err != nil {
		return err
	}
	live := tracker.Tracks()
	ts := make([]store.TrackState, len(live))
	for j, tr := range live {
		ts[j] = store.TrackState{ID: tr.ID, Box: tr.Box, VelX: tr.Vel.X, VelY: tr.Vel.Y, Hits: tr.Hits, Misses: tr.Misses}
	}
	return sink.WriteTracks(store.Tracks{Frame: k, Receiver: round.Receiver, Tracks: ts})
}
