package core

import (
	"bytes"
	"fmt"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
	"cooper/internal/sim"
	"cooper/internal/spod"
)

// Transport carries an episode's sender frames to its receivers. It
// decides, once per episode, what every receiver fuses at every frame;
// everything after delivery — fusion, detection, truth scoring,
// world-frame tracking, store records and telemetry — is the lab's one
// path. Two transports therefore differ only in what arrives, when and
// at what cost: the in-process DSRC timeline (the default) and the hub's
// TCP sessions (internal/hub).
type Transport interface {
	Deliver(ep *Episode) (*Delivery, error)
}

// Delivery is a transport's answer for a whole episode.
type Delivery struct {
	// Receivers lists the fusing poses in result order.
	Receivers []int
	// Rounds[k][r] is what Receivers[r] fuses at frame k.
	Rounds [][]Round
	// Publishers lists the poses that put frames on the channel, in the
	// order the store records them. Wire, when non-nil, holds
	// [frame][publisher] the bytes each one sent; a nil Wire (or entry)
	// means the capture's broadcast encode.
	Publishers []int
	Wire       [][][]byte
}

// Round is what one receiver fuses at one frame.
type Round struct {
	// Slots hold one entry per sender the round covers, in fusion order.
	// Their poses widen truth scoring to the cooperative area even when
	// a slot delivered nothing; a round with no usable slot is a warm-up
	// frame, detected single-shot.
	Slots []RoundSlot
	// Latency is the round's modelled delivery time.
	Latency time.Duration
}

// RoundSlot is one sender's contribution to a round.
type RoundSlot struct {
	// Pose is the sender; Frame the timeline index of the capture it
	// contributes, -1 when nothing of the sender's is usable (every
	// broadcast so far lost).
	Pose  int
	Frame int
	// State is the GPS/IMU state that travelled with the payload.
	State fusion.VehicleState
	// Data is the payload as delivered. Nil means the capture's
	// broadcast encode, motion-compensated to the receiving frame when
	// the episode compensates.
	Data []byte
	// WireBytes, when positive, is what the slot cost on the channel
	// where that differs from the fused payload (a delta stream).
	WireBytes int
}

// Episode is a transport's view of the episode being run: its options,
// participants and the lab's cached captures.
type Episode struct {
	lab     *EpisodeLab
	opts    EpisodeOptions
	backend fusion.Backend
	det     *spod.Detector
	period  time.Duration
	// receiver and senders are the case's poses; walks their drift.
	receiver int
	senders  []int
	walks    map[int][]scene.PoseError
}

// Options returns the episode's options, defaults resolved.
func (ep *Episode) Options() EpisodeOptions { return ep.opts }

// Backend returns the episode's fusion backend.
func (ep *Episode) Backend() fusion.Backend { return ep.backend }

// Participants returns the case's poses, receiver first.
func (ep *Episode) Participants() []int { return append([]int{ep.receiver}, ep.senders...) }

// Label names a pose.
func (ep *Episode) Label(p int) string { return ep.lab.poseLabel(p) }

// at is frame k's time on the episode timeline.
func (ep *Episode) at(k int) time.Duration { return time.Duration(k) * ep.period }

// State is the GPS/IMU state pose p reports at frame k: the true pose's
// state plus that frame's drift error, if any. Only reported states
// drift; sensing, occlusion, compensation and ground truth stay exact.
func (ep *Episode) State(p, k int) fusion.VehicleState {
	st := ep.lab.stateAt(ep.lab.capture(p, ep.at(k)).pose)
	if ep.walks != nil {
		e := ep.walks[p][k]
		st.GPS.X += e.X
		st.GPS.Y += e.Y
		st.Yaw += e.Yaw
	}
	return st
}

// Cloud is pose p's sensor-frame capture at frame k, FOV-cropped.
func (ep *Episode) Cloud(p, k int) *pointcloud.Cloud {
	return ep.lab.cropFOV(ep.lab.capture(p, ep.at(k)).scan.Cloud)
}

// Payload is the backend's broadcast encode of pose p's capture at
// frame k, computed once per lab.
func (ep *Episode) Payload(p, k int) ([]byte, error) { return ep.payload(p, k, nil) }

func (ep *Episode) payload(p, k int, s *spod.DetectorScratch) ([]byte, error) {
	return ep.lab.payloadFor(ep.lab.capture(p, ep.at(k)), ep.backend, ep.det, ep.State(p, k), s)
}

// dsrcTransport is the in-process transport: the case's senders
// broadcast one DSRC round per frame on the shared channel, through the
// episode's loss model, to the case's receiver.
type dsrcTransport struct{}

func (dsrcTransport) Deliver(ep *Episode) (*Delivery, error) {
	opts, senders := ep.opts, ep.senders
	_, rawBackend := ep.backend.(fusion.RawBackend)
	wireV3 := opts.Wire == "v3"

	// Phase 1.5 — non-raw backends pre-encode every sender capture's
	// broadcast in parallel: the channel plan below needs the sizes, and
	// the frame fan-out reuses the cached bytes.
	type capJob struct{ pose, k int }
	if !rawBackend {
		var encJobs []capJob
		for k := 0; k < opts.Frames; k++ {
			for _, s := range senders {
				encJobs = append(encJobs, capJob{s, k})
			}
		}
		encScratches := spod.NewScratches(parallel.WorkerCount(opts.Workers, len(encJobs)))
		if _, err := parallel.MapErrWorker(opts.Workers, len(encJobs), func(w, i int) (struct{}, error) {
			_, err := ep.payload(encJobs[i].pose, encJobs[i].k, encScratches[w])
			return struct{}{}, err
		}); err != nil {
			return nil, err
		}
	}

	// Phase 1.6 — wire v3: each sender's captures delta-code as one CPD1
	// stream in timeline order, keyframes at the interval and deltas
	// between. Streams are independent per sender, so senders fan out in
	// parallel; within a stream the encoder state makes frame order
	// load-bearing, so the inner loop is sequential. Every frame is
	// decoded back and re-encoded to prove the reconstruction is
	// byte-identical to the canonical capture encode the fusion phase
	// consumes: v3 changes payload sizes (and therefore the delivery
	// timeline), never the fused bytes.
	var v3sizes [][]int   // [frame][sender slot] broadcast bytes
	var v3key [][]int     // [sender slot][frame] → keyframe the delta decodes from
	var v3wire [][][]byte // [frame][sender slot] wire bytes, kept only for the store
	if wireV3 {
		v3sizes = make([][]int, opts.Frames)
		for k := range v3sizes {
			v3sizes[k] = make([]int, len(senders))
		}
		v3key = make([][]int, len(senders))
		for si := range v3key {
			v3key[si] = make([]int, opts.Frames)
		}
		if opts.Sink != nil {
			v3wire = make([][][]byte, opts.Frames)
			for k := range v3wire {
				v3wire[k] = make([][]byte, len(senders))
			}
		}
		if err := parallel.ForErr(opts.Workers, len(senders), func(si int) error {
			enc := pointcloud.DeltaEncoder{Interval: opts.KeyframeInterval}
			var dec pointcloud.DeltaDecoder
			recon := pointcloud.GetCloud()
			defer pointcloud.PutCloud(recon)
			lastKey := 0
			for k := 0; k < opts.Frames; k++ {
				data, key, err := enc.Encode(ep.Cloud(senders[si], k), uint64(k+1))
				if err != nil {
					return fmt.Errorf("core: delta-encoding pose %d frame %d: %w", senders[si], k, err)
				}
				if key {
					lastKey = k
				}
				v3key[si][k] = lastKey
				if err := dec.DecodeInto(data, recon); err != nil {
					return fmt.Errorf("core: reconstructing pose %d frame %d: %w", senders[si], k, err)
				}
				canonical, err := pointcloud.EncodeQuantized(recon)
				if err != nil {
					return fmt.Errorf("core: re-encoding pose %d frame %d: %w", senders[si], k, err)
				}
				if !bytes.Equal(canonical, ep.lab.capture(senders[si], ep.at(k)).payload) {
					return fmt.Errorf("core: pose %d frame %d: delta reconstruction diverged from the canonical encode", senders[si], k)
				}
				v3sizes[k][si] = len(data)
				if v3wire != nil {
					v3wire[k][si] = append([]byte(nil), data...)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Phase 2 — the broadcast timeline on the sim clock. Round j (the
	// senders' frames captured at t_j) becomes fusable at
	// t_j + Plan.Ready(); each frame k fuses the newest round ready by
	// t_k. Ready events are scheduled before fusion events, so a round
	// landing exactly on a frame boundary is fused that frame. Slots are
	// planned from the capture encodes: compensation preserves the
	// point count, and the warp target depends on this very schedule, so
	// planning from compensated sizes would be circular.
	sched := episodeScheduler(opts.Hz, opts.Delay)
	plans := make([]network.Plan, opts.Frames)
	for j := 0; j < opts.Frames; j++ {
		sizes := make([]int, len(senders))
		for si, s := range senders {
			if wireV3 {
				sizes[si] = v3sizes[j][si]
				continue
			}
			payload, err := ep.Payload(s, j)
			if err != nil {
				return nil, err
			}
			sizes[si] = len(payload)
		}
		plans[j] = sched.Plan(sizes)
	}
	clock := &sim.Clock{}
	available := -1
	rounds := make([]int, opts.Frames) // frame k → fused round index
	for j := 0; j < opts.Frames; j++ {
		j := j
		clock.Schedule(ep.at(j)+plans[j].Ready(), func(time.Duration) {
			if j > available {
				available = j
			}
		})
	}
	for k := 0; k < opts.Frames; k++ {
		k := k
		clock.Schedule(ep.at(k), func(time.Duration) { rounds[k] = available })
	}
	for clock.Step() {
	}

	// Phase 2.5 — the channel has its say. A lossy channel breaks the
	// round granularity: every slot has its own fate, so availability is
	// tracked per sender. Sender slot si's frame j is usable at frame k
	// when its slot was delivered (and, on wire v3, so was the keyframe
	// its delta decodes from) by t_k; each frame fuses every sender's
	// newest usable frame, however stale. The lossless path keeps the
	// round timeline above — which the zero-rate model reproduces
	// exactly, every DeliveredAt equalling the plan's Ready.
	sround := make([][]int, opts.Frames) // frame k → per-sender fused frame (-1 = none)
	if opts.Loss.Enabled() {
		lps := make([]network.LossyPlan, opts.Frames)
		for j := range lps {
			lps[j] = opts.Loss.Round(int64(j), plans[j])
		}
		usableAt := func(j, si int) (time.Duration, bool) {
			d, ok := lps[j].AvailableAt(si)
			if !ok {
				return 0, false
			}
			t := ep.at(j) + d
			if wireV3 {
				if kj := v3key[si][j]; kj != j {
					kd, ok := lps[kj].AvailableAt(si)
					if !ok {
						// The keyframe this delta decodes from was lost:
						// the frame arrived but cannot be reconstructed.
						return 0, false
					}
					if kt := ep.at(kj) + kd; kt > t {
						t = kt
					}
				}
			}
			return t, true
		}
		for k := range sround {
			sround[k] = make([]int, len(senders))
			for si := range senders {
				best := -1
				for j := 0; j <= k; j++ {
					if t, ok := usableAt(j, si); ok && t <= ep.at(k) {
						best = j
					}
				}
				sround[k][si] = best
			}
		}
	} else {
		for k := range sround {
			sround[k] = make([]int, len(senders))
			for si := range senders {
				sround[k][si] = rounds[k]
			}
		}
	}

	d := &Delivery{
		Receivers:  []int{ep.receiver},
		Rounds:     make([][]Round, opts.Frames),
		Publishers: senders,
		Wire:       v3wire,
	}
	for k := range d.Rounds {
		r := Round{Slots: make([]RoundSlot, len(senders))}
		newest := -1
		for si, s := range senders {
			j := sround[k][si]
			r.Slots[si] = RoundSlot{Pose: s, Frame: j}
			if j < 0 {
				continue
			}
			r.Slots[si].State = ep.State(s, j)
			if wireV3 {
				// The wire carried the delta stream; fusion consumes the
				// canonical reconstruction (verified byte-identical above).
				r.Slots[si].WireBytes = v3sizes[j][si]
			}
			newest = max(newest, j)
		}
		if newest >= 0 {
			r.Latency = plans[newest].Ready()
		}
		d.Rounds[k] = []Round{r}
	}
	return d, nil
}
