package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

// MsgType tags the messages of the hub session protocol, the one Cooper
// exchange protocol: the paper's 1:1 exchange is a 2-vehicle session.
type MsgType uint8

// Message types. The numbers are fixed wire values.
const (
	// MsgHello opens a hub session: the vehicle announces its identity
	// and GPS/IMU state, and the name it says hello with is the only
	// Sender the session may use afterwards. The hub acknowledges with
	// its own MsgHello whose Count reports the number of cached frames.
	MsgHello MsgType = iota + 16
	// MsgFrame publishes (client→hub) or delivers (hub→client) one
	// vehicle frame: sender state plus the encoded payload — a CPQ1
	// cloud, a CPF3 feature frame or a CPD1 delta-stream frame, told
	// apart by their magic. Seq orders a vehicle's successive frames on
	// publish and carries the broadcast slot index on delivery. The hub
	// acknowledges a publish with an empty MsgFrame echoing Seq, Count =
	// frames now cached. On delivery Count is 1 when the frame is stale:
	// older than the requester's freshness floor.
	MsgFrame
	// MsgFuseRequest asks the hub for a fused round: up to Count sender
	// frames assembled for the requester, selected nearest-first, with
	// payloads fitted to the Budget bandwidth cap (bits/s, 0 = none).
	// Seq is the requester's freshness floor.
	MsgFuseRequest
	// MsgFuseReply announces a fusion round: Count MsgFrame messages
	// follow, one per scheduled sender slot. Seq is the round number.
	MsgFuseReply
	// MsgError reports a rejected request; the text rides in Payload
	// and the session continues.
	MsgError
	// MsgFeatureFuseRequest is MsgFuseRequest at the feature level
	// (F-Cooper): every scheduled sender arrives as a CPF3 feature
	// frame, budget-trimmed by column salience.
	MsgFeatureFuseRequest MsgType = 25
)

func (t MsgType) valid() bool {
	return t >= MsgHello && t <= MsgError || t == MsgFeatureFuseRequest
}

// Message is one Cooper exchange unit on the wire: the sender's identity
// and GPS/IMU state, the Budget/Count/Seq trailer and an opaque payload.
type Message struct {
	Type   MsgType
	Sender string
	State  fusion.VehicleState
	// Payload is the encoded frame, or the text of a MsgError.
	Payload []byte
	// Budget is a bandwidth cap in bits per second (0 = uncapped). A
	// client advertises it on a fuse request; the hub fits the round's
	// payloads under it.
	Budget uint64
	// Count is a small cardinality or flag; each type's comment above
	// gives its meaning.
	Count uint32
	// Seq is a sequence number: frame generation on publish, broadcast
	// slot index on delivery, freshness floor on a fuse request.
	Seq uint64
}

// Wire format errors.
var (
	ErrBadMessage = errors.New("network: malformed message")
	ErrTooBig     = errors.New("network: message exceeds size limit")
)

// MaxMessageSize bounds a single message (16 MiB), protecting receivers
// from hostile or corrupt length prefixes.
const MaxMessageSize = 16 << 20

var messageMagic = [4]byte{'C', 'P', 'M', 'X'}

// wireVersion is the message layout's version byte. Versions 1–3 were
// earlier layouts; decoding rejects them.
const wireVersion = 4

// The message layout, little-endian throughout:
//
//	magic "CPMX" | version | type | sender length u16 | sender
//	| 7 × f64 state (GPS x,y,z, yaw, pitch, roll, mount height)
//	| budget u64 | count u32 | seq u64 | payload length u32 | payload
const (
	headerFixed = 4 + 1 + 1 + 2       // magic, version, type, sender length
	bodyFixed   = 7*8 + 8 + 4 + 8 + 4 // state, budget, count, seq, payload length
)

// EncodeMessage serialises a message.
func EncodeMessage(m Message) ([]byte, error) {
	if !m.Type.valid() {
		return nil, fmt.Errorf("%w: unknown message type %d", ErrBadMessage, m.Type)
	}
	if len(m.Sender) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: sender name too long", ErrBadMessage)
	}
	size := headerFixed + len(m.Sender) + bodyFixed + len(m.Payload)
	if size > MaxMessageSize {
		return nil, ErrTooBig
	}
	buf := make([]byte, 0, size)
	buf = append(buf, messageMagic[:]...)
	buf = append(buf, wireVersion, byte(m.Type))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Sender)))
	buf = append(buf, m.Sender...)
	for _, f := range []float64{
		m.State.GPS.X, m.State.GPS.Y, m.State.GPS.Z,
		m.State.Yaw, m.State.Pitch, m.State.Roll, m.State.MountHeight,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.LittleEndian.AppendUint64(buf, m.Budget)
	buf = binary.LittleEndian.AppendUint32(buf, m.Count)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf, nil
}

// DecodeMessage parses a serialised message. The encoding is canonical:
// anything EncodeMessage would not have produced — another version, an
// unknown type, a short or overlong body — is rejected.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	if len(data) < headerFixed {
		return m, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	if [4]byte(data[:4]) != messageMagic {
		return m, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	if data[4] != wireVersion {
		return m, fmt.Errorf("%w: unsupported version %d", ErrBadMessage, data[4])
	}
	m.Type = MsgType(data[5])
	if !m.Type.valid() {
		return m, fmt.Errorf("%w: unknown message type %d", ErrBadMessage, m.Type)
	}
	senderLen := int(binary.LittleEndian.Uint16(data[6:]))
	off := headerFixed
	if len(data) < off+senderLen+bodyFixed {
		return m, fmt.Errorf("%w: truncated", ErrBadMessage)
	}
	m.Sender = string(data[off : off+senderLen])
	off += senderLen
	read := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	m.State.GPS = geom.V3(read(), read(), read())
	m.State.Yaw, m.State.Pitch, m.State.Roll = read(), read(), read()
	m.State.MountHeight = read()
	m.Budget = binary.LittleEndian.Uint64(data[off:])
	m.Count = binary.LittleEndian.Uint32(data[off+8:])
	m.Seq = binary.LittleEndian.Uint64(data[off+12:])
	payloadLen := int(binary.LittleEndian.Uint32(data[off+20:]))
	off += 24
	if payloadLen > MaxMessageSize {
		return m, ErrTooBig
	}
	if len(data)-off != payloadLen {
		return m, fmt.Errorf("%w: payload length %d, %d bytes follow", ErrBadMessage, payloadLen, len(data)-off)
	}
	m.Payload = make([]byte, payloadLen)
	copy(m.Payload, data[off:])
	return m, nil
}
