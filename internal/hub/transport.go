package hub

import (
	"bytes"
	"fmt"
	"sync"

	"cooper/internal/core"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
)

// roundTransport carries an episode through a live hub. Every
// participant holds its own TCP session; each frame, every vehicle
// publishes its lab capture (the backend's encode, or the CPD1 delta
// stream on wire v3), and once the cache holds the whole frame every
// vehicle requests a fusion round of its k nearest peers under the
// budget. Loss, k and the budget apply at the hub as for any client, and
// each receiver fuses exactly the round its session received.
type roundTransport struct {
	addr   string
	k      int
	budget uint64

	mu     sync.Mutex
	served map[string]Round // the current frame's rounds, by requester

	// Filled by Deliver for the report: the rounds the hub served
	// ([frame][receiver]), the v3 publish stream's bytes against full
	// quantized publishes, and the clients' in-band keyframe retries.
	rounds             [][]Round
	wireSent, wireFull int
	retries            uint64
}

// record is the hub's onRound hook: it keeps each requester's round as
// the hub assembled it.
func (t *roundTransport) record(requester string, r Round) {
	t.mu.Lock()
	t.served[requester] = r
	t.mu.Unlock()
}

// Deliver implements core.Transport.
func (t *roundTransport) Deliver(ep *core.Episode) (*core.Delivery, error) {
	opts := ep.Options()
	if opts.Compensate {
		return nil, fmt.Errorf("hub: rounds serve the published bytes, so there is no per-receiver encode to motion-compensate")
	}
	feature := ep.Backend().Name() == "feature"
	fleet := ep.Participants()
	poseOf := make(map[string]int, len(fleet))
	clients := make([]*Client, len(fleet))
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	for i, p := range fleet {
		poseOf[ep.Label(p)] = p
		cl, _, err := Connect(t.addr, ep.Label(p), ep.State(p, 0))
		if err != nil {
			return nil, err
		}
		cl.SetKeyframeInterval(opts.KeyframeInterval)
		clients[i] = cl
	}

	d := &core.Delivery{
		Receivers:  fleet,
		Rounds:     make([][]core.Round, opts.Frames),
		Publishers: fleet,
		Wire:       make([][][]byte, opts.Frames),
	}
	t.served = make(map[string]Round, len(fleet))
	t.rounds = make([][]Round, opts.Frames)
	sent := make([]int, len(fleet))
	full := make([]int, len(fleet))
	for k := 0; k < opts.Frames; k++ {
		// Every publish lands before any round is assembled: the
		// barrier makes each round independent of session scheduling.
		d.Wire[k] = make([][]byte, len(fleet))
		if err := parallel.ForErr(opts.Workers, len(fleet), func(i int) error {
			p := fleet[i]
			state := ep.State(p, k)
			if opts.Wire == "v3" {
				cloud := ep.Cloud(p, k)
				_, n, err := clients[i].PublishDelta(state, cloud)
				if err != nil {
					return err
				}
				sent[i] += n
				full[i] += pointcloud.EncodedSizeQuantized(cloud.Len())
				d.Wire[k][i] = append([]byte(nil), clients[i].LastWirePayload()...)
				return nil
			}
			payload, err := ep.Payload(p, k)
			if err != nil {
				return err
			}
			_, err = clients[i].Publish(state, payload)
			return err
		}); err != nil {
			return nil, err
		}

		received, err := parallel.MapErr(opts.Workers, len(fleet), func(i int) ([]RoundFrame, error) {
			state := ep.State(fleet[i], k)
			if feature {
				return clients[i].RequestFeatureRound(state, t.k, t.budget)
			}
			return clients[i].RequestRound(state, t.k, t.budget)
		})
		if err != nil {
			return nil, err
		}

		t.rounds[k] = make([]Round, len(fleet))
		d.Rounds[k] = make([]core.Round, len(fleet))
		for i, p := range fleet {
			t.mu.Lock()
			served := t.served[ep.Label(p)]
			t.mu.Unlock()
			if len(served.Frames) != len(received[i]) {
				return nil, fmt.Errorf("hub: %s received %d frames of a %d-frame round", ep.Label(p), len(received[i]), len(served.Frames))
			}
			r := core.Round{Latency: served.Plan.Completion(), Slots: make([]core.RoundSlot, len(received[i]))}
			for j, rf := range received[i] {
				sf := served.Frames[j]
				pose, ok := poseOf[rf.Sender]
				if !ok || rf.Sender != sf.Sender || !bytes.Equal(rf.Payload, sf.Payload) {
					return nil, fmt.Errorf("hub: %s's slot %d arrived other than served", ep.Label(p), j)
				}
				r.Slots[j] = core.RoundSlot{Pose: pose, Frame: int(sf.Seq) - 1, State: rf.State, Data: rf.Payload}
			}
			t.rounds[k][i] = served
			d.Rounds[k][i] = r
		}
	}
	for i, cl := range clients {
		t.retries += cl.KeyframeRetries()
		t.wireSent += sent[i]
		t.wireFull += full[i]
	}
	return d, nil
}
