package hub

import (
	"fmt"
	"strings"

	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
)

// Client is a vehicle's session with a fleet hub: a thin, synchronous
// wrapper over the transport. A Client is not safe for concurrent use;
// each vehicle session owns one.
type Client struct {
	conn    *network.Transport
	id      string
	seq     uint64
	denc    pointcloud.DeltaEncoder
	retries uint64
	// lastWire is the payload the most recent PublishDelta actually put
	// on the wire (the keyframe, when the delta was retried) — what an
	// episode store records as the published frame.
	lastWire []byte
}

// Connect dials the hub and opens a session for the named vehicle,
// exchanging hellos. peers reports how many vehicles the hub already has
// cached.
func Connect(addr, id string, state fusion.VehicleState) (c *Client, peers int, err error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, 0, err
	}
	c = &Client{conn: conn, id: id}
	if err := conn.Send(network.Message{Type: network.MsgHello, Sender: id, State: state}); err != nil {
		conn.Close()
		return nil, 0, err
	}
	ack, err := c.receive(network.MsgHello)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return c, int(ack.Count), nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// Publish sends one frame — the capture state plus any payload the hub
// accepts: a CPQ1 cloud or a CPF3 feature frame — and waits for the
// hub's ack, returning how many vehicles the hub now has cached.
// Successive publishes carry increasing sequence numbers, so the hub's
// latest-frame cache always converges on the newest frame.
func (c *Client) Publish(state fusion.VehicleState, payload []byte) (cached int, err error) {
	c.seq++
	return c.send(state, payload)
}

// send puts one MsgFrame at the current sequence number on the wire and
// waits for its ack.
func (c *Client) send(state fusion.VehicleState, payload []byte) (cached int, err error) {
	if err := c.conn.Send(network.Message{
		Type:    network.MsgFrame,
		Sender:  c.id,
		State:   state,
		Payload: payload,
		Seq:     c.seq,
	}); err != nil {
		return 0, err
	}
	ack, err := c.receive(network.MsgFrame)
	if err != nil {
		return 0, err
	}
	return int(ack.Count), nil
}

// SetKeyframeInterval tunes the client's CPD1 publish stream: at most n
// frames per keyframe (0 restores pointcloud.DefaultKeyframeInterval,
// 1 makes every publish a keyframe).
func (c *Client) SetKeyframeInterval(n int) { c.denc.Interval = n }

// PublishDelta publishes one frame on the client's CPD1 delta stream.
// The cloud is encoded as a keyframe or a delta against the client's
// last keyframe (see pointcloud.DeltaEncoder); the hub reconstructs the
// full frame before caching, so fusion rounds are unaffected by how the
// frame travelled. If the hub reports missing or stale keyframe state (a
// hub restart, a lost publish), the client transparently re-sends the
// frame as a fresh keyframe. wireBytes reports the payload size that
// actually went on the wire — the delta stream's bandwidth win over
// EncodedSizeQuantized.
func (c *Client) PublishDelta(state fusion.VehicleState, cloud *pointcloud.Cloud) (cached, wireBytes int, err error) {
	c.seq++
	payload, _, err := c.denc.Encode(cloud, c.seq)
	if err != nil {
		return 0, 0, err
	}
	cached, err = c.send(state, payload)
	if err != nil && strings.Contains(err.Error(), "keyframe") {
		// The hub could not apply the delta; recover with a keyframe.
		c.retries++
		c.denc.ForceKeyframe()
		if payload, _, err = c.denc.Encode(cloud, c.seq); err != nil {
			return 0, 0, err
		}
		cached, err = c.send(state, payload)
	}
	if err != nil {
		return 0, 0, err
	}
	c.lastWire = payload
	return cached, len(payload), nil
}

// LastWirePayload returns the bytes the most recent PublishDelta put on
// the wire.
func (c *Client) LastWirePayload() []byte { return c.lastWire }

// KeyframeRetries reports how many delta publishes the client had to
// recover in-band with a forced keyframe (hub restarts, lost keyframes).
// Silent before this counter existed, the recovery path is now the wire
// report's and telemetry's keyframe-retry signal.
func (c *Client) KeyframeRetries() uint64 { return c.retries }

// RequestRound asks the hub for a fusion round of up to k senders under a
// bandwidth cap of budgetBps bits/s (0 each for the hub defaults) and
// collects the announced frames in slot order.
func (c *Client) RequestRound(state fusion.VehicleState, k int, budgetBps uint64) ([]RoundFrame, error) {
	return c.requestRound(state, k, budgetBps, network.MsgFuseRequest)
}

// RequestFeatureRound is RequestRound at the feature level: every frame
// arrives as a budget-trimmed CPF3 feature payload.
func (c *Client) RequestFeatureRound(state fusion.VehicleState, k int, budgetBps uint64) ([]RoundFrame, error) {
	return c.requestRound(state, k, budgetBps, network.MsgFeatureFuseRequest)
}

func (c *Client) requestRound(state fusion.VehicleState, k int, budgetBps uint64, req network.MsgType) ([]RoundFrame, error) {
	if err := c.conn.Send(network.Message{
		Type:   req,
		Sender: c.id,
		State:  state,
		Count:  uint32(max(k, 0)),
		Budget: budgetBps,
		// The client's own publish sequence is its freshness floor: any
		// served sender older than the requester's current frame gets
		// flagged stale on its delivered frame.
		Seq: c.seq,
	}); err != nil {
		return nil, err
	}
	reply, err := c.receive(network.MsgFuseReply)
	if err != nil {
		return nil, err
	}
	// Count is the hub's claim, not a checked fact: a reply above a
	// positive k is a protocol violation, and only a Count bounded by k
	// may size the slice.
	if k > 0 && reply.Count > uint32(k) {
		return nil, fmt.Errorf("%w: hub announced %d frames for a round of at most %d", network.ErrBadMessage, reply.Count, k)
	}
	frames := make([]RoundFrame, 0, min(reply.Count, uint32(max(k, 0))))
	for i := uint32(0); i < reply.Count; i++ {
		m, err := c.receive(network.MsgFrame)
		if err != nil {
			return nil, err
		}
		frames = append(frames, RoundFrame{Sender: m.Sender, State: m.State, Payload: m.Payload, Stale: m.Count != 0})
	}
	return frames, nil
}

// receive reads the next message, converting in-band MsgError replies and
// unexpected types into errors.
func (c *Client) receive(want network.MsgType) (network.Message, error) {
	m, err := c.conn.Receive()
	if err != nil {
		return network.Message{}, err
	}
	if m.Type == network.MsgError {
		return network.Message{}, fmt.Errorf("hub error: %s", m.Payload)
	}
	if m.Type != want {
		return network.Message{}, fmt.Errorf("hub: expected message type %d, got %d", want, m.Type)
	}
	return m, nil
}
