package hub

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/network"
)

// fakeHubClient returns a client whose hub is a fake on a net.Pipe: it
// answers one round request with reply, sends frames MsgFrame messages
// and hangs up.
func fakeHubClient(reply network.Message, frames int) *Client {
	hubEnd, clientEnd := net.Pipe()
	go func() {
		hub := network.NewTransport(hubEnd)
		defer hub.Close()
		if _, err := hub.Receive(); err != nil {
			return
		}
		if err := hub.Send(reply); err != nil {
			return
		}
		for i := 0; i < frames; i++ {
			if err := hub.Send(network.Message{Type: network.MsgFrame, Sender: fmt.Sprintf("v%d", i+2)}); err != nil {
				return
			}
		}
	}()
	return &Client{conn: network.NewTransport(clientEnd), id: "v1"}
}

// TestRequestRoundRejectsCountAboveRequest: a hub announcing more frames
// than the k the client asked for breaks the protocol, and the client
// must say so before reading a single frame.
func TestRequestRoundRejectsCountAboveRequest(t *testing.T) {
	c := fakeHubClient(network.Message{Type: network.MsgFuseReply, Count: 3}, 3)
	defer c.Close()
	frames, err := c.RequestRound(fusion.VehicleState{}, 2, 0)
	if !errors.Is(err, network.ErrBadMessage) {
		t.Fatalf("reply Count 3 for k=2: frames=%d err=%v, want ErrBadMessage", len(frames), err)
	}
}

// TestRequestRoundHostileCountAllocatesNothing: a reply announcing
// 2^32-1 frames must not size any allocation, whether the client bounded
// the round (k > 0, rejected outright) or left it to the hub (k = 0,
// the hub hangs up after the reply).
func TestRequestRoundHostileCountAllocatesNothing(t *testing.T) {
	for _, k := range []int{0, 4} {
		c := fakeHubClient(network.Message{Type: network.MsgFuseReply, Count: math.MaxUint32}, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.RequestRound(fusion.VehicleState{}, k, 0)
		runtime.ReadMemStats(&after)
		c.Close()
		if err == nil {
			t.Fatalf("k=%d: hostile reply accepted", k)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("k=%d: request allocated %d bytes for an unverified Count", k, grew)
		}
	}
}
