package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder gossipd runs on every
// TCP frame. Any input must either fail with an error or decode to a
// message that survives Encode → Decode unchanged: the decoder never
// panics, never accepts what the encoder cannot produce, and never
// invents fields the encoder would drop.
func FuzzDecode(f *testing.F) {
	for _, msg := range []any{
		Gossip{MsgID: 0xdeadbeef12345678, Origin: "127.0.0.1:9000", Hops: 7, Payload: []byte("hello")},
		Gossip{MsgID: 1, Origin: "x"},
		Join{Addr: "10.0.0.1:7000"},
		JoinAck{Peers: []string{"a:1", "b:2", ""}},
		JoinAck{},
		Ping{Seq: 42},
		Pong{Seq: 43},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 10, TypeGossip, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 0x7f})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A payload inside MaxFrame but beyond what Encode accepts.
	big := binary.BigEndian.AppendUint32(nil, 1+8+2+1+4+maxPayload+1)
	big = append(big, TypeGossip)
	big = append(big, make([]byte, 8+2+1)...)
	big = binary.BigEndian.AppendUint32(big, maxPayload+1)
	f.Add(append(big, make([]byte, maxPayload+1)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, msg); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("re-encoded %T left %d bytes", msg, buf.Len())
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("round trip changed the message:\n got %#v\nwant %#v", again, msg)
		}
	})
}
