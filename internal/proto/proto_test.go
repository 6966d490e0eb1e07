package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := EnrollRequest{
		UserID: 7,
		Capture: CaptureWire{
			Beeps:      [][][]float64{{{0.1, 0.2}, {0.3, 0.4}}},
			SampleRate: 48000,
		},
		Retrain: true,
	}
	env, err := NewEnvelope(TypeEnrollRequest, "r-1", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	env, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeEnrollRequest || env.Version != Version || env.RequestID != "r-1" {
		t.Fatalf("envelope %+v", env)
	}
	var back EnrollRequest
	if err := DecodeBody(env, &back); err != nil {
		t.Fatal(err)
	}
	if back.UserID != 7 || !back.Retrain || back.Capture.SampleRate != 48000 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if back.Capture.Beeps[0][1][1] != 0.4 {
		t.Error("samples corrupted")
	}
}

func TestWriteNilBody(t *testing.T) {
	var buf bytes.Buffer
	env, err := NewEnvelope(TypeStatusRequest, "r-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	env, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeStatusRequest {
		t.Errorf("type %q", env.Type)
	}
	if err := DecodeBody(env, &StatusResponse{}); err == nil {
		t.Error("empty body decoded")
	}
}

func TestReadRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Read(&buf); err == nil {
		t.Error("oversized length accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Error("zero length accepted")
	}
}

// TestReadOversizedBoundary pins the limit exactly: MaxMessageBytes is the
// largest accepted frame, one byte more is rejected before the payload is
// read.
func TestReadOversizedBoundary(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxMessageBytes+1)
	if _, err := Read(bytes.NewReader(prefix[:])); err == nil {
		t.Error("frame of MaxMessageBytes+1 accepted")
	}

	// A frame of exactly MaxMessageBytes must be read in full: a small
	// header padded to the limit, the padding read as its body.
	head := []byte(`{"version":3,"type":"status"}`)
	payload := append(head, bytes.Repeat([]byte{' '}, MaxMessageBytes-len(head))...)
	binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
	env, err := Read(io.MultiReader(bytes.NewReader(prefix[:]), bytes.NewReader(payload)))
	if err != nil {
		t.Fatalf("frame of exactly MaxMessageBytes rejected: %v", err)
	}
	if env.Type != TypeStatusRequest || len(env.Body) != MaxMessageBytes-len(head) {
		t.Errorf("padded %s frame read with a body of %d bytes, want %d", env.Type, len(env.Body), MaxMessageBytes-len(head))
	}
}

// TestWriteRejectsOversized checks the sender-side guard: a body that
// inflates the envelope past MaxMessageBytes never reaches the wire.
func TestWriteRejectsOversized(t *testing.T) {
	var sink countWriter
	env, err := NewEnvelope(TypeError, "r-1", strings.Repeat("a", MaxMessageBytes))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&sink, env); err == nil {
		t.Error("oversized message written")
	}
	if sink.n != 0 {
		t.Errorf("%d bytes leaked to the wire before the size check", sink.n)
	}
}

// TestWriteEnvelopeKeepsBodyBytes pins what a forwarding router relies
// on: a body read off the wire is written back byte for byte — no
// compaction, no HTML escaping.
func TestWriteEnvelopeKeepsBodyBytes(t *testing.T) {
	body := []byte(`{ "message": "a<b && c>d",  "n": [1, 2] }`)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Version: Version, RequestID: "r-1", Type: TypeError, Body: body}); err != nil {
		t.Fatal(err)
	}
	env, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Body, body) || env.RequestID != "r-1" || env.Type != TypeError {
		t.Errorf("envelope came back as %+v with body %q", env, env.Body)
	}
}

// TestFrameIsHeaderThenBody pins the frame layout: the length prefix, the
// envelope header as a JSON object, then the body bytes. Read carries a
// body that is not JSON as it is; DecodeBody is what refuses it.
func TestFrameIsHeaderThenBody(t *testing.T) {
	body := []byte(`{"user_id":3}`)
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Version: Version, RequestID: "r-1", User: 3, Type: TypeEnrollRequest, Body: body}); err != nil {
		t.Fatal(err)
	}
	want := frame([]byte(`{"version":3,"request_id":"r-1","user":3,"type":"enroll"}{"user_id":3}`))
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("frame %q, want %q", buf.Bytes(), want)
	}
	env, err := Read(bytes.NewReader(frame([]byte(`{"version":3,"type":"enroll"}{"user_id":`))))
	if err != nil {
		t.Fatalf("frame with a truncated body not read: %v", err)
	}
	if string(env.Body) != `{"user_id":` {
		t.Errorf("truncated body read as %q", env.Body)
	}
	if err := DecodeBody(env, &EnrollRequest{}); err == nil {
		t.Error("truncated body decoded")
	}
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func TestReadTruncatedPrefix(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{0, 0})); err == nil || err == io.EOF {
		t.Errorf("truncated prefix gave %v, want a framing error", err)
	}
}

func TestReadEOF(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream error %v, want io.EOF", err)
	}
}

func TestReadTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10})
	buf.WriteString("short")
	if _, err := Read(&buf); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestEnvelopeVersionCheck pins the one-dialect contract: framing still
// reads an envelope of any version (a frame without a version key reads as
// version 0, and a version 2 frame, whose body sits inside the envelope
// object, reads as its header alone), and CheckVersion, which servers run
// before dispatch, refuses every version but Version with a message naming
// both.
func TestEnvelopeVersionCheck(t *testing.T) {
	for want, legacy := range map[int]string{
		0: `{"type":"authenticate","body":{"capture":{"beeps":[[[1]]],"sample_rate":48000}}}`,
		2: `{"version":2,"request_id":"r-2","type":"authenticate","body":{"capture":{"beeps":[[[1]]],"sample_rate":48000}}}`,
	} {
		env, err := Read(bytes.NewReader(frame([]byte(legacy))))
		if err != nil {
			t.Fatalf("version %d frame rejected at framing layer: %v", want, err)
		}
		if env.Type != TypeAuthRequest || env.Version != want || len(env.Body) != 0 {
			t.Errorf("version %d frame decoded as %+v with body %q", want, env, env.Body)
		}
	}
	for _, v := range []int{0, 1, 2, 4} {
		err := CheckVersion(&Envelope{Version: v, Type: TypeStatusRequest})
		if err == nil {
			t.Errorf("version %d accepted", v)
			continue
		}
		for _, want := range []string{fmt.Sprintf("version %d ", v), fmt.Sprintf("version %d", Version)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d refusal %q does not name %q", v, err, want)
			}
		}
	}

	// NewEnvelope stamps Version, which survives framing and passes.
	var buf bytes.Buffer
	out, err := NewEnvelope(TypeRetrainRequest, "req-42", RetrainRequest{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, out); err != nil {
		t.Fatal(err)
	}
	env, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != Version || env.RequestID != "req-42" || env.Type != TypeRetrainRequest {
		t.Errorf("frame decoded as %+v", env)
	}
	if err := CheckVersion(env); err != nil {
		t.Errorf("current version refused: %v", err)
	}
}

// TestRouteHintCompat pins the envelope routing hint: a zero User puts no
// "user" key on the wire, and a set User round-trips with the body
// untouched.
func TestRouteHintCompat(t *testing.T) {
	// Unrouted v2 frame: no "user" key on the wire.
	var buf bytes.Buffer
	env, err := NewEnvelope(TypeStatusRequest, "r-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes()[4:], []byte(`"user"`)) {
		t.Errorf("unrouted frame leaks routing hint: %s", buf.Bytes()[4:])
	}

	// Routed frame: the hint survives framing, body untouched.
	buf.Reset()
	env, err = NewEnvelope(TypeAuthRequest, "r-2", AuthRequest{Capture: CaptureWire{SampleRate: 48000}})
	if err != nil {
		t.Fatal(err)
	}
	env.User = 7
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != 7 || got.RequestID != "r-2" || got.Version != Version {
		t.Errorf("routed frame decoded as %+v", got)
	}
	var req AuthRequest
	if err := DecodeBody(got, &req); err != nil {
		t.Fatal(err)
	}
	if req.Capture.SampleRate != 48000 {
		t.Errorf("routed body lost fields: %+v", req)
	}
}

// TestUnknownTypePassesFraming documents the layering contract: framing
// is transparent to message types — rejection of unknown types is the
// daemon's job (answered in-band with CodeUnknownType), not the codec's.
func TestUnknownTypePassesFraming(t *testing.T) {
	var buf bytes.Buffer
	env, err := NewEnvelope(MsgType("hologram"), "r-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	env, err = Read(&buf)
	if err != nil {
		t.Fatalf("unknown type rejected at framing layer: %v", err)
	}
	if env.Type != MsgType("hologram") {
		t.Errorf("type %q", env.Type)
	}
}

func TestConnOverPipe(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		pc := NewConn(server)
		env, err := pc.Receive()
		if err != nil {
			done <- err
			return
		}
		var req AuthRequest
		if err := DecodeBody(env, &req); err != nil {
			done <- err
			return
		}
		resp, err := NewEnvelope(TypeAuthResponse, env.RequestID, AuthResponse{Accepted: true, UserID: 3})
		if err != nil {
			done <- err
			return
		}
		done <- pc.SendEnvelope(resp)
	}()

	req, err := NewEnvelope(TypeAuthRequest, "r-7", AuthRequest{
		Capture: CaptureWire{Beeps: [][][]float64{{{1}}}, SampleRate: 48000},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewConn(client).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplyError(env); err != nil {
		t.Fatalf("success reply decoded as error: %v", err)
	}
	var resp AuthResponse
	if err := DecodeBody(env, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.UserID != 3 {
		t.Errorf("response %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// replyWith answers one request on the server end of a pipe with a reply
// built from the request.
func replyWith(t *testing.T, server net.Conn, build func(req *Envelope) *Envelope) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		pc := NewConn(server)
		req, err := pc.Receive()
		if err != nil {
			done <- err
			return
		}
		done <- pc.SendEnvelope(build(req))
	}()
	return done
}

// TestRoundTripRejectsMismatchedRequestID checks the echo contract: a
// reply correlated to another request is an error, not a result.
func TestRoundTripRejectsMismatchedRequestID(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := replyWith(t, server, func(req *Envelope) *Envelope {
		return &Envelope{Version: Version, RequestID: req.RequestID + "-other", Type: TypeStatusResponse, Body: []byte(`{}`)}
	})
	req, err := NewEnvelope(TypeStatusRequest, "r-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewConn(client).RoundTrip(req)
	if err == nil || !strings.Contains(err.Error(), `"r-1-other"`) {
		t.Fatalf("mismatched echo gave reply %+v, error %v", resp, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReplyErrorCarriesCode checks the typed error: an error reply decodes
// to an *Error with its stable code, which RetryableCode classifies; a
// transport error and a success reply carry no code.
func TestReplyErrorCarriesCode(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := replyWith(t, server, func(req *Envelope) *Envelope {
		env, _ := NewEnvelope(TypeError, req.RequestID, ErrorResponse{Code: CodeOverloaded, Message: "shed"})
		return env
	})
	req, err := NewEnvelope(TypeAuthRequest, "r-2", AuthRequest{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewConn(client).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	rerr := ReplyError(resp)
	var pe *Error
	if !errors.As(rerr, &pe) || pe.Code != CodeOverloaded || pe.Message != "shed" {
		t.Fatalf("error reply decoded as %#v", rerr)
	}
	if code := ErrorCode(fmt.Errorf("wrapped: %w", rerr)); !RetryableCode(code) {
		t.Errorf("wrapped overloaded reply gave code %q", code)
	}
	if code := ErrorCode(io.ErrUnexpectedEOF); code != "" {
		t.Errorf("transport error gave code %q", code)
	}
	if err := ReplyError(&Envelope{Type: TypeStatusResponse}); err != nil {
		t.Errorf("success reply decoded as %v", err)
	}
	if code := ErrorCode(ReplyError(&Envelope{Type: TypeError})); code != "" || RetryableCode(code) {
		t.Errorf("undecodable error reply gave code %q", code)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRetryableCodeClassifiesEveryCode holds the retry decision for every
// stable code. A code added to Codes without an entry here fails, so the
// decision is made on purpose rather than defaulting to "permanent".
func TestRetryableCodeClassifiesEveryCode(t *testing.T) {
	retryable := map[string]bool{
		CodeBadRequest:  false,
		CodeUnknownType: false,
		CodeNotTrained:  false,
		CodeProcess:     false,
		CodeTrain:       false,
		CodeUnavailable: true,
		CodeOverloaded:  true,
		CodeInternal:    false,
	}
	listed := map[string]bool{}
	for _, code := range Codes {
		listed[code] = true
		want, ok := retryable[code]
		if !ok {
			t.Errorf("code %q is in Codes but has no retry decision here", code)
			continue
		}
		if got := RetryableCode(code); got != want {
			t.Errorf("RetryableCode(%q) = %v, want %v", code, got, want)
		}
	}
	for code := range retryable {
		if !listed[code] {
			t.Errorf("code %q has a retry decision but is missing from Codes", code)
		}
	}
}
