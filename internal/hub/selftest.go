package hub

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cooper/internal/core"
	"cooper/internal/network"
	"cooper/internal/roi"
	"cooper/internal/scene"
)

// SelfTestOptions parameterises a single-process hub exercise.
type SelfTestOptions struct {
	// Scene is the generated world: its family (default platoon), fleet
	// (the in-process clients, 2..scene.MaxFleet), seed and traffic.
	Scene scene.GenParams
	// Episode holds the knobs every episode shares: Frames (default 1,
	// the one-round exercise), Hz (default 2), Workers, Backend, Wire
	// ("v3" publishes on the CPD1 delta stream), KeyframeInterval, Drift,
	// Correct, Metrics and Sink. Loss applies at the hub's ingress:
	// dropped publishes leave each sender's last delivered frame serving,
	// flagged stale. The report is byte-identical at any Workers value.
	// Delay and Compensate do not apply: the hub schedules the rounds
	// and serves the published bytes.
	Episode core.EpisodeOptions
	// BandwidthMbps, when > 0, is each client's advertised sustained
	// cap in Mbit/s; the hub fits round payloads under it.
	BandwidthMbps float64
	// MaxSenders caps the senders each client requests (0 = everyone
	// else in the fleet).
	MaxSenders int
	// HTTPAddr, when non-empty, serves the hub's stats API for the
	// run's duration (see Linger).
	HTTPAddr string
	// Linger keeps the hub (and its stats API) alive for the given
	// wall-clock duration after the report is written, so external
	// observers can scrape a settled run. It affects nothing in the
	// report or the metrics.
	Linger time.Duration
}

// SelfTest spins up a hub plus an in-process fleet of TCP clients from a
// generated scenario and runs one episode through it: the episode lab
// senses, the hub transport publishes and serves the rounds, and the lab
// fuses, detects, scores, tracks and records. It writes a fused
// precision/recall and modelled per-round-latency report — for one
// frozen round, or, with Frames > 1, for a streamed episode over the
// moving world with per-client track continuity. Every figure derives
// from seeded sensing, deterministic payload selection and the DSRC
// schedule model — never from wall-clock — so the output is
// byte-identical across runs and worker counts.
func SelfTest(w io.Writer, opts SelfTestOptions) error {
	if opts.Scene.Family == "" {
		opts.Scene.Family = scene.FamilyPlatoon
	}
	if opts.Scene.Fleet < 2 {
		return fmt.Errorf("hub: selftest needs a fleet of at least 2, got %d", opts.Scene.Fleet)
	}
	ep := &opts.Episode
	ep.Frames = max(ep.Frames, 1)
	if ep.Hz <= 0 {
		ep.Hz = 2
	}
	sc, err := scene.Generate(opts.Scene)
	if err != nil {
		return err
	}
	k := opts.MaxSenders
	if k <= 0 || k > opts.Scene.Fleet-1 {
		k = opts.Scene.Fleet - 1
	}

	h := New(Config{MaxSenders: scene.MaxFleet, Loss: ep.Loss, Metrics: ep.Metrics, HTTPAddr: opts.HTTPAddr})
	t := &roundTransport{k: k, budget: uint64(opts.BandwidthMbps * 1e6)}
	h.onRound = t.record
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go h.Serve(l)
	defer h.Close()
	if _, err := h.StartHTTP(); err != nil {
		return err
	}
	t.addr = l.Addr()
	ep.Transport = t
	res, err := core.NewEpisodeLab(sc).Run(*ep)
	if err != nil {
		return err
	}

	// Keyframe retries: the clients' in-band delta recoveries, summed
	// into telemetry before the report prints so a scrape after the
	// final report line always sees settled counters.
	ep.Metrics.Counter("client_keyframe_retries_total").Add(int64(t.retries))

	if ep.Frames == 1 {
		printSelfTest(w, sc, opts, k, t, res)
	} else {
		printStreaming(w, sc, opts, k, t, res)
	}
	if ep.Wire == "v3" {
		ratio := 1.0
		if t.wireFull > 0 {
			ratio = float64(t.wireSent) / float64(t.wireFull)
		}
		fmt.Fprintf(w, "\nwire v3: published %d B on the delta stream vs %d B full quantized (%.2f×)\n",
			t.wireSent, t.wireFull, ratio)
		fmt.Fprintf(w, "wire v3: %d keyframe retries recovered in-band\n", t.retries)
	}
	if opts.Linger > 0 {
		//cooper:wallclock -linger wall-clock flag path: holds the stats server open after the transcript is complete
		time.Sleep(opts.Linger)
	}
	return nil
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// header is the report's first line: the run's knobs, with the loss and
// drift clauses only when degraded, so clean transcripts carry none.
func header(opts SelfTestOptions, k int, budgetBps uint64) string {
	budget := "uncapped"
	if budgetBps > 0 {
		budget = fmt.Sprintf("%.2f Mbit/s", float64(budgetBps)/1e6)
	}
	ep := opts.Episode
	backend := "raw"
	if ep.Backend != nil {
		backend = ep.Backend.Name()
	}
	s := fmt.Sprintf("selftest %s fleet=%d seed=%d k=%d budget=%s backend=%s",
		opts.Scene.Family, opts.Scene.Fleet, opts.Scene.Seed, k, budget, backend)
	if ep.Frames > 1 {
		s += fmt.Sprintf(" frames=%d hz=%g", ep.Frames, ep.Hz)
	}
	if ep.Loss.Enabled() {
		s += fmt.Sprintf(" loss=%g(seed %d)", ep.Loss.DropRate, ep.Loss.Seed)
	}
	if ep.Drift > 0 {
		s += fmt.Sprintf(" drift=%gm", ep.Drift)
	}
	return s
}

func printSelfTest(w io.Writer, sc *scene.Scenario, opts SelfTestOptions, k int, t *roundTransport, res *core.EpisodeResult) {
	fmt.Fprintln(w, header(opts, k, t.budget))
	fmt.Fprintf(w, "scenario %s: %d-beam LiDAR, %d poses, %d ground-truth cars\n",
		sc.Name, sc.LiDAR.BeamCount(), len(sc.Poses), len(sc.Scene.Cars()))

	var singleR, coopR, fits float64
	var maxLatency string
	var maxCompletion int64
	for i, rcv := range res.Receivers {
		round, f := t.rounds[0][i], rcv.Frames[0]
		cats := make(map[roi.Category]int)
		senders := make([]string, len(round.Frames))
		downsampled := 0
		for j, rf := range round.Frames {
			senders[j] = rf.Sender
			cats[rf.Category]++
			if rf.Downsampled {
				downsampled++
			}
		}
		var notes []string
		for _, cat := range []roi.Category{roi.CategoryFullFrame, roi.CategoryFrontFOV, roi.CategoryLeadView, roi.CategoryFeature} {
			if n := cats[cat]; n > 0 {
				notes = append(notes, fmt.Sprintf("%d× cat%d", n, cat))
			}
		}
		catNote := strings.Join(notes, ", ")
		if downsampled > 0 {
			catNote += fmt.Sprintf(" (%d downsampled)", downsampled)
		}
		if opts.Episode.Loss.Enabled() {
			catNote += fmt.Sprintf(" | %d stale", len(round.Stale))
		}
		plan := round.Plan
		fmt.Fprintf(w, "\nround %s: fuses %s | %d KB | latency %v | load %.2f Mbit/s (util %.0f%%, fits %v) | %s\n",
			sc.PoseLabels[rcv.Pose], strings.Join(senders, "+"), plan.TotalBytes()/1024,
			plan.Completion(), plan.MbitPerSecond(), 100*plan.Utilization(), plan.Fits(), catNote)
		fmt.Fprintf(w, "  single-shot P=%s R=%s   cooper P=%s R=%s\n",
			pct(f.Single.Precision()), pct(f.Single.Recall()),
			pct(f.Coop.Precision()), pct(f.Coop.Recall()))

		singleR += f.Single.Recall()
		coopR += f.Coop.Recall()
		if plan.Fits() {
			fits++
		}
		if c := plan.Completion(); int64(c) >= maxCompletion {
			maxCompletion = int64(c)
			maxLatency = fmt.Sprint(c)
		}
	}
	n := float64(len(res.Receivers))
	fmt.Fprintf(w, "\nfleet mean: single recall %s -> cooper recall %s | worst round latency %s | channel fits %d/%d\n",
		pct(singleR/n), pct(coopR/n), maxLatency, int(fits), len(res.Receivers))
}

// printStreaming renders the episode form of the selftest: one line per
// streamed frame (fleet means) plus the per-client temporal summary.
func printStreaming(w io.Writer, sc *scene.Scenario, opts SelfTestOptions, k int, t *roundTransport, res *core.EpisodeResult) {
	fmt.Fprintln(w, header(opts, k, t.budget))
	fmt.Fprintf(w, "scenario %s: %d-beam LiDAR, %d poses, %d ground-truth cars, %d moving\n",
		sc.Name, sc.LiDAR.BeamCount(), len(sc.Poses), len(sc.Scene.Cars()), sc.MovingObjects())

	n := float64(len(res.Receivers))
	var episodeSingle, episodeCoop float64
	for f, rounds := range t.rounds {
		var singleR, coopR float64
		var fits, staleN int
		var worst time.Duration
		for i, rcv := range res.Receivers {
			singleR += rcv.Frames[f].Single.Recall()
			coopR += rcv.Frames[f].Coop.Recall()
			if rounds[i].Plan.Fits() {
				fits++
			}
			staleN += len(rounds[i].Stale)
			worst = max(worst, rounds[i].Plan.Completion())
		}
		episodeSingle += singleR / n
		episodeCoop += coopR / n
		staleNote := ""
		if opts.Episode.Loss.Enabled() {
			staleNote = fmt.Sprintf(" | stale %d", staleN)
		}
		fmt.Fprintf(w, "frame %2d t=%5dms: single R=%s -> cooper R=%s | worst latency %v | fits %d/%d%s\n",
			f, res.Frames[f].At.Milliseconds(), pct(singleR/n), pct(coopR/n), worst, fits, len(res.Receivers), staleNote)
	}

	fmt.Fprintln(w, "\ntracks per vehicle:")
	var contSum float64
	totalSwitches := 0
	for _, rcv := range res.Receivers {
		st := rcv.Temporal
		contSum += st.Continuity()
		totalSwitches += st.IDSwitches
		fmt.Fprintf(w, "  %-4s continuity %s (%d/%d truth-frames), %d tracks on truth, %d switches, %d fragments\n",
			sc.PoseLabels[rcv.Pose], pct(st.Continuity()), st.MatchedFrames, st.TruthFrames,
			st.Tracks, st.IDSwitches, st.Fragments)
	}
	nf := float64(len(t.rounds))
	fmt.Fprintf(w, "\nfleet mean over %d frames: single recall %s -> cooper recall %s | continuity %s | %d ID switches\n",
		len(t.rounds), pct(episodeSingle/nf), pct(episodeCoop/nf), pct(contSum/n), totalSwitches)
}
