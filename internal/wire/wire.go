// Package wire defines the binary wire protocol spoken by the TCP gossip
// node (internal/gossipnode, cmd/gossipd): length-prefixed frames with a
// one-byte type tag and fixed-endian (big-endian) fields, no reflection,
// no external dependencies.
//
// Frame layout:
//
//	uint32  frame length (bytes after this field; max MaxFrame)
//	uint8   message type
//	...     type-specific body
//
// Strings are uint16-length-prefixed UTF-8. Byte slices are uint32-length-
// prefixed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame body so a malicious peer cannot force an
// arbitrary allocation.
const MaxFrame = 1 << 20

// maxPayload bounds a Gossip payload, on both sides of the wire: Decode
// accepts exactly the payloads Encode can produce.
const maxPayload = MaxFrame / 2

// Message type tags.
const (
	TypeGossip  = 0x01
	TypeJoin    = 0x02
	TypeJoinAck = 0x03
	TypePing    = 0x04
	TypePong    = 0x05
)

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrUnknownType   = errors.New("wire: unknown message type")
)

// Gossip carries one multicast payload.
type Gossip struct {
	// MsgID uniquely identifies the multicast for deduplication.
	MsgID uint64
	// Origin is the publisher's listen address.
	Origin string
	// Hops counts forwarding steps so far.
	Hops uint8
	// Payload is the application data.
	Payload []byte
}

// Join asks a contact to admit the sender into the group.
type Join struct {
	// Addr is the joiner's listen address.
	Addr string
}

// JoinAck answers a Join with a peer sample.
type JoinAck struct {
	// Peers is a sample of the contact's membership view.
	Peers []string
}

// Ping is a liveness probe.
type Ping struct{ Seq uint64 }

// Pong answers a Ping.
type Pong struct{ Seq uint64 }

// Encode writes one framed message. msg must be one of the package's
// message types (value or pointer).
func Encode(w io.Writer, msg any) error {
	var body []byte
	var typ byte
	switch m := msg.(type) {
	case Gossip:
		typ = TypeGossip
		body = appendUint64(body, m.MsgID)
		var err error
		body, err = appendString(body, m.Origin)
		if err != nil {
			return err
		}
		body = append(body, m.Hops)
		body, err = appendBytes(body, m.Payload)
		if err != nil {
			return err
		}
	case Join:
		typ = TypeJoin
		var err error
		body, err = appendString(body, m.Addr)
		if err != nil {
			return err
		}
	case JoinAck:
		typ = TypeJoinAck
		if len(m.Peers) > 0xffff {
			return fmt.Errorf("wire: too many peers %d", len(m.Peers))
		}
		body = appendUint16(body, uint16(len(m.Peers)))
		for _, p := range m.Peers {
			var err error
			body, err = appendString(body, p)
			if err != nil {
				return err
			}
		}
	case Ping:
		typ = TypePing
		body = appendUint64(body, m.Seq)
	case Pong:
		typ = TypePong
		body = appendUint64(body, m.Seq)
	default:
		return fmt.Errorf("wire: cannot encode %T", msg)
	}
	frame := make([]byte, 0, 5+len(body))
	frame = binary.BigEndian.AppendUint32(frame, uint32(1+len(body)))
	frame = append(frame, typ)
	frame = append(frame, body...)
	if len(frame)-4 > MaxFrame {
		return ErrFrameTooLarge
	}
	_, err := w.Write(frame)
	return err
}

// Decode reads one framed message. It returns one of the package's message
// types (by value).
func Decode(r io.Reader) (any, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 {
		return nil, ErrTruncated
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	typ, body := buf[0], buf[1:]
	d := decoder{b: body}
	switch typ {
	case TypeGossip:
		var g Gossip
		g.MsgID = d.uint64()
		g.Origin = d.string()
		g.Hops = d.byte()
		g.Payload = d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		return g, nil
	case TypeJoin:
		var j Join
		j.Addr = d.string()
		if d.err != nil {
			return nil, d.err
		}
		return j, nil
	case TypeJoinAck:
		var a JoinAck
		cnt := d.uint16()
		for i := 0; i < int(cnt) && d.err == nil; i++ {
			a.Peers = append(a.Peers, d.string())
		}
		if d.err != nil {
			return nil, d.err
		}
		return a, nil
	case TypePing:
		p := Ping{Seq: d.uint64()}
		if d.err != nil {
			return nil, d.err
		}
		return p, nil
	case TypePong:
		p := Pong{Seq: d.uint64()}
		if d.err != nil {
			return nil, d.err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
	}
}

// ---------------------------------------------------------------------------
// primitives

func appendUint16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > 0xffff {
		return nil, fmt.Errorf("wire: string too long (%d)", len(s))
	}
	b = appendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

func appendBytes(b, p []byte) ([]byte, error) {
	if len(p) > maxPayload {
		return nil, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...), nil
}

// decoder consumes a body buffer with sticky errors.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = ErrTruncated
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) string() string {
	n := d.uint16()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) bytes() []byte {
	b4 := d.take(4)
	if b4 == nil {
		return nil
	}
	n := binary.BigEndian.Uint32(b4)
	if n > maxPayload {
		d.err = ErrFrameTooLarge
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
