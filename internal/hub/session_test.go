package hub

import (
	"testing"

	"cooper/internal/network"
	"cooper/internal/telemetry"
)

// TestStaleMarkerSenderWithComma: staleness travels per delivered frame,
// so a stale sender whose name contains a comma is flagged itself — not
// the fresh vehicles its name happens to spell.
func TestStaleMarkerSenderWithComma(t *testing.T) {
	h, addr := startHub(t, Config{})
	for _, p := range []struct {
		id  string
		x   float64
		seq uint64
	}{{"a,b", 10, 1}, {"a", 20, 5}, {"b", 30, 5}} {
		if _, err := h.Publish(p.id, stateAt(p.x, 0), payloadFor(t, 200, int64(p.x)), p.seq); err != nil {
			t.Fatal(err)
		}
	}

	rx, _, err := Connect(addr, "rx", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	// Three publishes raise the requester's freshness floor to seq 3:
	// "a,b" (seq 1) is stale, "a" and "b" (seq 5) are fresh.
	for i := 0; i < 3; i++ {
		if _, err := rx.Publish(stateAt(0, 0), payloadFor(t, 100, 9)); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := rx.RequestRound(stateAt(0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a,b": true, "a": false, "b": false}
	if len(frames) != len(want) {
		t.Fatalf("round has %d frames, want %d", len(frames), len(want))
	}
	for _, f := range frames {
		if f.Stale != want[f.Sender] {
			t.Errorf("%q stale = %v, want %v", f.Sender, f.Stale, want[f.Sender])
		}
	}
}

// TestSessionSenderBound: a session publishes only under the name it said
// hello with. Messages before hello and messages naming another sender
// are rejected in-band, counted, and leave the cache untouched.
func TestSessionSenderBound(t *testing.T) {
	reg := telemetry.New()
	h, addr := startHub(t, Config{Metrics: reg})
	if _, err := h.Publish("b", stateAt(10, 0), payloadFor(t, 200, 1), 1); err != nil {
		t.Fatal(err)
	}
	victim := payloadFor(t, 200, 1)
	spoof := payloadFor(t, 300, 2)

	conn, err := network.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(m network.Message) network.Message {
		t.Helper()
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Receive()
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	// Publishing before hello is refused.
	if r := exchange(network.Message{Type: network.MsgFrame, Sender: "a", Payload: spoof, Seq: 1}); r.Type != network.MsgError {
		t.Errorf("publish before hello answered with type %d, want MsgError", r.Type)
	}
	if r := exchange(network.Message{Type: network.MsgHello, Sender: "a"}); r.Type != network.MsgHello {
		t.Fatalf("hello answered with type %d", r.Type)
	}
	// Session "a" tries to overwrite vehicle "b"'s frame.
	if r := exchange(network.Message{Type: network.MsgFrame, Sender: "b", Payload: spoof, Seq: 9}); r.Type != network.MsgError {
		t.Errorf("publish as another sender answered with type %d, want MsgError", r.Type)
	}
	// A renaming hello is the same spoof.
	if r := exchange(network.Message{Type: network.MsgHello, Sender: "b"}); r.Type != network.MsgError {
		t.Errorf("second hello under another name answered with type %d, want MsgError", r.Type)
	}
	// The session survives and still publishes under its own name.
	if r := exchange(network.Message{Type: network.MsgFrame, Sender: "a", Payload: spoof, Seq: 1}); r.Type != network.MsgFrame || r.Count != 2 {
		t.Errorf("own publish answered with type %d count %d, want MsgFrame count 2", r.Type, r.Count)
	}

	round, err := h.AssembleRound("rx", stateAt(10, 0).GPS, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range round.Frames {
		if f.Sender == "b" && string(f.Payload) != string(victim) {
			t.Error("a spoofed publish overwrote b's cached frame")
		}
	}
	if got := reg.Counter("hub_session_rejections_total").Value(); got != 3 {
		t.Errorf("hub_session_rejections_total = %d, want 3", got)
	}
}
