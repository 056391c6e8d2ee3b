package network

import (
	"errors"
	"testing"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

func TestDSRCTransmitTime(t *testing.T) {
	c := DefaultDSRC()
	// 1.8 Mbit (the paper's costliest frame) at 6 Mbit/s × 0.8 ≈ 375 ms.
	d := c.TransmitTime(1800000 / 8)
	if d < 300*time.Millisecond || d > 450*time.Millisecond {
		t.Errorf("1.8 Mbit transmit time = %v", d)
	}
	// Zero bytes still pay the base latency.
	if got := c.TransmitTime(0); got != c.BaseLatency {
		t.Errorf("zero-byte transmit = %v, want %v", got, c.BaseLatency)
	}
}

func TestDSRCCanSustain(t *testing.T) {
	c := DefaultDSRC()          // 4.8 Mbit/s effective
	if !c.CanSustain(500_000) { // 4 Mbit/s
		t.Error("channel should sustain 4 Mbit/s")
	}
	if c.CanSustain(1_000_000) { // 8 Mbit/s
		t.Error("channel should not sustain 8 Mbit/s")
	}
}

func TestDSRCUtilization(t *testing.T) {
	c := DSRCChannel{DataRateMbps: 10, MACEfficiency: 1}
	if got := c.Utilization(125_000); got != 0.1 { // 1 Mbit/s of 10
		t.Errorf("utilization = %v, want 0.1", got)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Type:   MsgFuseRequest,
		Sender: "car1",
		State: fusion.VehicleState{
			GPS: geom.V3(12.5, -3.25, 0.5),
			Yaw: 0.7, Pitch: -0.01, Roll: 0.02,
			MountHeight: 1.73,
		},
		Payload: []byte{1, 2, 3, 4, 5},
		Budget:  2_000_000,
		Count:   5,
		Seq:     42,
	}
	enc, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if enc[4] != wireVersion {
		t.Errorf("encoded with version %d, want %d", enc[4], wireVersion)
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMessage(got, m) {
		t.Errorf("round trip: got %+v, want %+v", got, m)
	}
}

// TestMessageV2RoundTrip checks the Budget/Count/Seq trailer that the
// retired version 2 introduced: every message type now carries it on the
// one wire layout, so delta-stream frames and the fuse requests travel
// under the same version byte as everything else.
func TestMessageV2RoundTrip(t *testing.T) {
	st := fusion.VehicleState{GPS: geom.V3(1, 2, 0), Yaw: 0.5, MountHeight: 1.7}
	for _, m := range []Message{
		{Type: MsgHello, Sender: "v1", State: st, Count: 3},
		{Type: MsgFrame, Sender: "v1", State: st, Payload: []byte("CPD1-opaque-payload"), Seq: 7},
		{Type: MsgFuseRequest, Sender: "v3", State: st, Budget: 2_000_000, Count: 5, Seq: 42},
		{Type: MsgFeatureFuseRequest, Sender: "v3", State: st, Budget: 500_000, Count: 2, Seq: 9},
		{Type: MsgFuseReply, Sender: "hub", Count: 4, Seq: 11},
		{Type: MsgError, Sender: "hub", Payload: []byte("no such sender")},
	} {
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("type %d: %v", m.Type, err)
		}
		if enc[4] != wireVersion {
			t.Errorf("type %d encoded with version %d, want %d", m.Type, enc[4], wireVersion)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("type %d: %v", m.Type, err)
		}
		if !sameMessage(got, m) {
			t.Errorf("type %d round trip: got %+v, want %+v", m.Type, got, m)
		}
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("nil: %v", err)
	}
	if _, err := DecodeMessage([]byte("XXXXXXXXXX")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("garbage: %v", err)
	}
	good, _ := EncodeMessage(Message{Type: MsgFrame, Sender: "a", Payload: make([]byte, 100)})
	if _, err := DecodeMessage(good[:40]); !errors.Is(err, ErrBadMessage) {
		t.Errorf("truncated: %v", err)
	}
	if _, err := DecodeMessage(append(good, 0)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("trailing byte: %v", err)
	}
	// Wrong version.
	bad := append([]byte{}, good...)
	bad[4] = 9
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad version: %v", err)
	}
	// Unknown type, on either side of the codec.
	bad = append([]byte{}, good...)
	bad[5] = 24
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("unknown type: %v", err)
	}
	if _, err := EncodeMessage(Message{Type: 1, Sender: "a"}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("encoding an unknown type: %v", err)
	}
}

func TestTransportOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		msg Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		msg, err := conn.Receive()
		if err != nil {
			done <- result{err: err}
			return
		}
		// Echo a response back.
		if err := conn.Send(Message{Type: MsgFrame, Sender: "server", Payload: msg.Payload}); err != nil {
			done <- result{err: err}
			return
		}
		done <- result{msg: msg}
	}()

	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := make([]byte, 50000)
	for i := range payload {
		payload[i] = byte(i)
	}
	want := Message{Type: MsgFrame, Sender: "car1", Payload: payload}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Sender != "server" || len(reply.Payload) != len(payload) {
		t.Errorf("reply = %s/%d bytes", reply.Sender, len(reply.Payload))
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.msg.Sender != "car1" || len(r.msg.Payload) != len(payload) {
		t.Errorf("server got %s/%d bytes", r.msg.Sender, len(r.msg.Payload))
	}
}

func TestScheduleVolume(t *testing.T) {
	// The paper's costliest case: two cars exchanging full 16-beam frames
	// at 1 Hz, ≈1.8 Mbit per frame each ⇒ well within DSRC.
	s := ExchangeSchedule{RateHz: 1, FrameBytes: 1800000 / 8, Directions: 2}
	if got := s.MbitPerSecond(); got < 3.5 || got > 3.7 {
		t.Errorf("mutual full-frame load = %v Mbit/s", got)
	}
	if !s.FitsChannel(DefaultDSRC()) {
		t.Error("1 Hz mutual exchange should fit the 6 Mbit/s channel")
	}
	// 10 Hz full-rate exchange exceeds the default channel: the paper's
	// argument for the 1 Hz sample rate.
	fullRate := ExchangeSchedule{RateHz: 10, FrameBytes: 1800000 / 8, Directions: 2}
	if fullRate.FitsChannel(DefaultDSRC()) {
		t.Error("10 Hz mutual exchange should exceed the 6 Mbit/s channel")
	}
}

func TestScheduleSeries(t *testing.T) {
	s := ExchangeSchedule{RateHz: 1, FrameBytes: 125000, Directions: 1}
	series := s.VolumeSeries(8)
	if len(series) != 8 {
		t.Fatalf("series length %d", len(series))
	}
	for _, v := range series {
		if v != 1.0 { // 125000 B = 1 Mbit
			t.Errorf("per-second volume = %v, want 1", v)
		}
	}
}

func TestScheduleFrameLatency(t *testing.T) {
	s := ExchangeSchedule{RateHz: 1, FrameBytes: 125000, Directions: 1}
	c := DSRCChannel{DataRateMbps: 10, MACEfficiency: 1, BaseLatency: 0}
	if got := s.FrameLatency(c); got != 100*time.Millisecond {
		t.Errorf("frame latency = %v, want 100ms", got)
	}
}
