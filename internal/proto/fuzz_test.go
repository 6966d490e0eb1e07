package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame length-prefixes a payload the way WriteEnvelope does, letting the
// seed corpus express interesting payloads without hand-computing prefixes.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// FuzzRead throws arbitrary bytes at the frame reader. Read must never
// panic, and any frame it accepts must survive a re-encode/re-read round
// trip with envelope identity intact — the property the daemon relies on
// when it echoes request IDs back through WriteEnvelope.
func FuzzRead(f *testing.F) {
	// Valid v2 envelope.
	f.Add(frame([]byte(`{"version":2,"request_id":"r-1","type":"status"}`)))
	// Versionless envelope with a body: Read accepts the frame, and
	// dispatch refuses it (CheckVersion).
	f.Add(frame([]byte(`{"type":"enroll","body":{"user_id":3}}`)))
	// Error response envelope.
	f.Add(frame([]byte(`{"type":"error","body":{"code":"overloaded","message":"shed"}}`)))
	// Zero-length frame (rejected: length out of range).
	f.Add(frame(nil))
	// Truncated payload: prefix promises more bytes than follow.
	f.Add([]byte{0, 0, 0, 50, '{', '"'})
	// Truncated prefix.
	f.Add([]byte{0, 0})
	// Oversize length prefix (rejected before allocation is attempted).
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Valid frame followed by trailing garbage (must still parse).
	f.Add(append(frame([]byte(`{"type":"status"}`)), 0xDE, 0xAD))
	// Frame holding non-JSON bytes.
	f.Add(frame([]byte{0x00, 0x01, 0x02}))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		var buf bytes.Buffer
		if werr := WriteEnvelope(&buf, env); werr != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", werr)
		}
		again, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("re-encoded envelope failed to parse: %v", rerr)
		}
		if again.Type != env.Type || again.Version != env.Version || again.RequestID != env.RequestID {
			t.Fatalf("round trip changed identity: %+v -> %+v", env, again)
		}
		if !bytes.Equal(again.Body, env.Body) {
			t.Fatalf("round trip changed body: %q -> %q", env.Body, again.Body)
		}
	})
}
