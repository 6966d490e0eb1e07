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
	// Valid envelope with no body.
	f.Add(frame([]byte(`{"version":3,"request_id":"r-1","type":"status"}`)))
	// Header followed by its body.
	f.Add(frame([]byte(`{"version":3,"request_id":"r-2","type":"enroll","user":3}{"user_id":3,"capture":{"beeps":"AwAAAAEAAAABAAAAAQAAAAAAAAAAAPA/","sample_rate":48000}}`)))
	// Error response envelope.
	f.Add(frame([]byte(`{"version":3,"type":"error"}{"code":"overloaded","message":"shed"}`)))
	// Version 2 layout, the body inside the envelope object: Read takes
	// the header alone, and dispatch refuses it (CheckVersion).
	f.Add(frame([]byte(`{"version":2,"type":"enroll","body":{"user_id":3}}`)))
	// Header followed by a body that is not JSON (carried unread:
	// DecodeBody, not Read, refuses it).
	f.Add(frame([]byte(`{"version":3,"type":"status"}{"open":`)))
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

// FuzzCaptureWire throws arbitrary text at the sample block decoders.
// Decoding must never panic, and any text a decoder accepts must
// re-encode to identical text: one block, one text.
func FuzzCaptureWire(f *testing.F) {
	for _, b := range []Beeps{nil, {{{1, -2}, {0.5, 3}}}, {{}, {}}, {{{}, {}}}} {
		text, err := b.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	for _, c := range []Channels{nil, {{1e-310, -0.0, 1.7976931348623157e308}}, make(Channels, 6)} {
		text, err := c.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add([]byte("AgAAAAEAAAABAAAAAQAAAAAA+H8=")) // a NaN sample (rejected)
	f.Add([]byte("AgAAAP////8AAAAA"))             // too many empty rows (rejected)
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, text []byte) {
		var b Beeps
		if b.UnmarshalText(text) == nil {
			again, err := b.MarshalText()
			if err != nil {
				t.Fatalf("accepted beeps failed to re-encode: %v", err)
			}
			if !bytes.Equal(again, text) {
				t.Fatalf("beeps re-encoded as %q, want %q", again, text)
			}
		}
		var c Channels
		if c.UnmarshalText(text) == nil {
			again, err := c.MarshalText()
			if err != nil {
				t.Fatalf("accepted channels failed to re-encode: %v", err)
			}
			if !bytes.Equal(again, text) {
				t.Fatalf("channels re-encoded as %q, want %q", again, text)
			}
		}
	})
}
