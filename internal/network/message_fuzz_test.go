package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

// legacyFraming builds a message in one of the retired layouts: version
// 1 (state, a 48-byte region, payload) or versions 2 and 3 (the same
// plus the Budget/Count/Seq trailer before the payload length).
func legacyFraming(version, typ byte, sender string, payload []byte) []byte {
	buf := append([]byte("CPMX"), version, typ)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sender)))
	buf = append(buf, sender...)
	buf = append(buf, make([]byte, 13*8)...) // state and region
	if version >= 2 {
		buf = append(buf, make([]byte, 8+4+8)...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// legacyMessages are retired framings the decoder must refuse: v1 full
// scan and ROI request, v2 frame and fuse request, v3 feature frame,
// feature fuse request and delta frame.
func legacyMessages() [][]byte {
	return [][]byte{
		legacyFraming(1, 1, "car1", []byte("CPQ1")),
		legacyFraming(1, 3, "car2", nil),
		legacyFraming(2, 17, "v1", []byte("CPQ1")),
		legacyFraming(2, 18, "v2", nil),
		legacyFraming(3, 24, "v1", []byte("CPF3")),
		legacyFraming(3, 25, "v2", nil),
		legacyFraming(3, 26, "v1", []byte("CPD1")),
	}
}

func TestDecodeMessageRejectsLegacyVersions(t *testing.T) {
	for _, data := range legacyMessages() {
		if _, err := DecodeMessage(data); !errors.Is(err, ErrBadMessage) {
			t.Errorf("version %d type %d framing: err = %v, want ErrBadMessage", data[4], data[5], err)
		}
	}
}

// sameMessage compares messages field by field, states by bit pattern so
// NaN coordinates compare equal to themselves.
func sameMessage(a, b Message) bool {
	bits := func(s fusion.VehicleState) [7]uint64 {
		var out [7]uint64
		for i, f := range []float64{s.GPS.X, s.GPS.Y, s.GPS.Z, s.Yaw, s.Pitch, s.Roll, s.MountHeight} {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	return a.Type == b.Type && a.Sender == b.Sender && bits(a.State) == bits(b.State) &&
		bytes.Equal(a.Payload, b.Payload) && a.Budget == b.Budget && a.Count == b.Count && a.Seq == b.Seq
}

// FuzzDecodeMessage: decoding never panics, every rejection wraps
// ErrBadMessage or ErrTooBig, and an accepted message is canonical — it
// re-encodes to the input bytes and decodes back to itself.
func FuzzDecodeMessage(f *testing.F) {
	st := fusion.VehicleState{GPS: geom.V3(12.5, -3.25, 0), Yaw: 0.7, MountHeight: 1.73}
	for _, typ := range []MsgType{MsgHello, MsgFrame, MsgFuseRequest, MsgFuseReply, MsgError, MsgFeatureFuseRequest} {
		enc, err := EncodeMessage(Message{Type: typ, Sender: "car1", State: st, Payload: []byte("CPQ1"), Budget: 2_000_000, Count: 3, Seq: 7})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, data := range legacyMessages() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) && !errors.Is(err, ErrTooBig) {
				t.Fatalf("error %v wraps neither ErrBadMessage nor ErrTooBig", err)
			}
			return
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted message re-encodes to different bytes")
		}
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !sameMessage(again, m) {
			t.Fatalf("re-decoded message differs: %+v vs %+v", again, m)
		}
	})
}
