package network

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// receiveRaw feeds raw bytes to a Transport and returns what Receive
// makes of them — the harness for the framing robustness table.
func receiveRaw(t *testing.T, raw []byte) (Message, error) {
	t.Helper()
	c1, c2 := net.Pipe()
	go func() {
		c1.Write(raw)
		c1.Close()
	}()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	return NewTransport(c2).Receive()
}

// frame wraps an encoded message body in the transport's length prefix.
func frame(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

func validBody(t *testing.T) []byte {
	t.Helper()
	body, err := EncodeMessage(Message{Type: MsgFrame, Sender: "car1", Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFramingErrors feeds the transport malformed wire data; every row
// must produce a clean error — never a panic, never a garbage message.
func TestFramingErrors(t *testing.T) {
	tests := []struct {
		name string
		raw  func(t *testing.T) []byte
		want error // nil = any non-nil error
	}{
		{
			name: "truncated length prefix",
			raw:  func(t *testing.T) []byte { return []byte{42, 0} },
		},
		{
			name: "oversized length prefix",
			raw: func(t *testing.T) []byte {
				var p [4]byte
				binary.LittleEndian.PutUint32(p[:], MaxMessageSize+1)
				return p[:]
			},
			want: ErrTooBig,
		},
		{
			name: "truncated frame body",
			raw: func(t *testing.T) []byte {
				full := frame(validBody(t))
				return full[:len(full)-10]
			},
		},
		{
			name: "empty frame",
			raw:  func(t *testing.T) []byte { return frame(nil) },
			want: ErrBadMessage,
		},
		{
			name: "bad magic",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[0] = 'X'
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "bad version byte",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[4] = 9
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "version zero",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[4] = 0
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "sender length past end",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				binary.LittleEndian.PutUint16(body[6:], 60000)
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "payload length past end",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				// The payload length field sits 4+3 bytes from the end
				// (3-byte payload): corrupt it upward.
				off := len(body) - 3 - 4
				binary.LittleEndian.PutUint32(body[off:], 1000)
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "body truncated before the trailer",
			raw: func(t *testing.T) []byte {
				body, err := EncodeMessage(Message{Type: MsgFuseRequest, Sender: "v1", Count: 3})
				if err != nil {
					t.Fatal(err)
				}
				return frame(body[:len(body)-(8+4+8)-4])
			},
			want: ErrBadMessage,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := receiveRaw(t, tc.raw(t))
			if err == nil {
				t.Fatal("malformed input produced no error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want errors.Is(_, %v)", err, tc.want)
			}
		})
	}
}

// TestFramingValidAfterGarbageConnection confirms the happy path through
// the same harness: a well-formed frame round-trips.
func TestFramingValid(t *testing.T) {
	m, err := receiveRaw(t, frame(validBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Sender != "car1" || m.Type != MsgFrame {
		t.Errorf("got %+v", m)
	}
}
