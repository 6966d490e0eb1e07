// Package proto defines the wire protocol between the EchoImage daemon
// (cmd/echoimaged) and its clients: length-prefixed messages over a
// stream transport. The daemon owns the trained authenticator; clients
// submit captures for enrollment or authentication.
//
// Framing: a message is a 4-byte big-endian length, then the envelope
// header as a JSON object, then the body bytes, if any. Framing carries
// the body unread, so a router forwards it unparsed; only DecodeBody
// checks it. Capture samples travel inside the body as sample blocks:
// base64 strings of little-endian float64s (Beeps, Channels), not as
// JSON numbers.
//
// Versioning: every envelope carries the sender's `version` and a
// `request_id`, and every response echoes both. Version 3 is the only
// dialect: servers answer any other version in band with bad_request
// (CheckVersion), and Conn.RoundTrip fails a reply that does not echo its
// request's ID. A version 2 frame, whose body sits inside the envelope
// object, reads as a header carrying version 2 and no body, so it is
// refused the same way.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxMessageBytes bounds a single message to keep a misbehaving peer from
// exhausting memory. Captures dominate message size: a 12-beep capture with
// its noise-only and reference channels is 3.56 MiB of sample blocks, and
// each further beep adds 0.16 MiB.
const MaxMessageBytes = 64 << 20

// Version is the protocol version this package speaks, and the only one
// its servers accept.
const Version = 3

// CheckVersion reports whether env speaks this package's protocol version.
// Servers call it before dispatch and answer a failure in band with
// CodeBadRequest, so a peer on another version learns why instead of
// losing its connection.
func CheckVersion(env *Envelope) error {
	if env.Version != Version {
		return fmt.Errorf("protocol version %d is not supported: this server speaks only version %d", env.Version, Version)
	}
	return nil
}

// MsgType discriminates requests and responses.
type MsgType string

// Protocol message types. The handoff pair is administrative:
// echoimage-router uses it to move one user's shard-local state between
// daemons during a drain.
const (
	TypeEnrollRequest     MsgType = "enroll"
	TypeAuthRequest       MsgType = "authenticate"
	TypeStatusRequest     MsgType = "status"
	TypeRetrainRequest    MsgType = "retrain"
	TypeModelInfoRequest  MsgType = "model_info"
	TypeHandoffRequest    MsgType = "handoff"
	TypeEnrollResponse    MsgType = "enroll_result"
	TypeAuthResponse      MsgType = "auth_result"
	TypeStatusResponse    MsgType = "status_result"
	TypeRetrainResponse   MsgType = "retrain_result"
	TypeModelInfoResponse MsgType = "model_info_result"
	TypeHandoffResponse   MsgType = "handoff_result"
	TypeError             MsgType = "error"
)

// Stable error codes carried by ErrorResponse.Code, so clients can branch
// without parsing message text.
// Retryable codes: `unavailable` (shutdown or an expired request
// deadline) and `overloaded` (capture admission queue full) are transient
// — a client should retry with exponential backoff. Every other code is
// permanent for the same request.
const (
	CodeBadRequest  = "bad_request"  // malformed body or invalid argument
	CodeUnknownType = "unknown_type" // unrecognized message type
	CodeNotTrained  = "not_trained"  // authentication before any model exists
	CodeProcess     = "process_failed"
	CodeTrain       = "train_failed"
	CodeUnavailable = "unavailable" // daemon shutting down or request deadline expired
	CodeOverloaded  = "overloaded"  // capture queue full: load shed, retry with backoff
	CodeInternal    = "internal"
)

// Codes lists every stable error code, for labelling per-code series.
var Codes = []string{
	CodeBadRequest, CodeUnknownType, CodeNotTrained, CodeProcess,
	CodeTrain, CodeUnavailable, CodeOverloaded, CodeInternal,
}

// RetryableCode reports whether a stable error code marks a transient
// failure worth retrying with backoff. TestRetryableCodeClassifiesEveryCode
// holds the decision for every entry of Codes, so a new code cannot ship
// without one. Unknown strings (peer newer than us) are treated as
// permanent: retrying an error we cannot classify amplifies load.
func RetryableCode(code string) bool {
	return code == CodeUnavailable || code == CodeOverloaded
}

// Envelope frames every message.
type Envelope struct {
	// Version is the sender's protocol version; servers accept only
	// Version.
	Version int `json:"version,omitempty"`
	// RequestID is an opaque client-chosen correlation token, echoed
	// verbatim in the response to this request.
	RequestID string `json:"request_id,omitempty"`
	// User is an optional routing hint naming the subject user of the
	// request. It lets echoimage-router pick the owning shard from the
	// envelope alone — it never decodes a capture body — so the router
	// refuses an enroll or authenticate without it. It also routes
	// requests (retrain, model_info) whose bodies carry no user at all.
	// The daemon refuses an enroll whose non-zero hint names a different
	// user than its body; 0 (field absent) means unrouted.
	User int     `json:"user,omitempty"`
	Type MsgType `json:"type"`
	// Body is the exact bytes that follow the header on the wire, empty
	// when absent; only DecodeBody reads them.
	Body json.RawMessage `json:"-"`
}

// NewEnvelope marshals body into an envelope carrying the given
// correlation token. A nil body produces an empty-body envelope.
func NewEnvelope(msgType MsgType, requestID string, body any) (*Envelope, error) {
	env := &Envelope{Version: Version, RequestID: requestID, Type: msgType}
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("proto: marshal %s body: %w", msgType, err)
		}
		env.Body = raw
	}
	return env, nil
}

// CaptureWire carries a multichannel capture.
type CaptureWire struct {
	// Beeps is indexed [beep][mic][sample].
	Beeps      Beeps   `json:"beeps"`
	SampleRate float64 `json:"sample_rate"`
	// NoiseOnly optionally carries a speaker-silent recording for noise
	// covariance estimation.
	NoiseOnly Channels `json:"noise_only,omitempty"`
	// Reference optionally carries the installation's background
	// calibration beep (empty-scene response) for subtraction.
	Reference Channels `json:"reference,omitempty"`
}

// EnrollRequest registers a user from a capture.
type EnrollRequest struct {
	UserID  int         `json:"user_id"`
	Capture CaptureWire `json:"capture"`
	// Retrain, when set, queues a model rebuild on the registry worker;
	// the response returns immediately. Send a retrain request with Wait
	// set to block until a model is live.
	Retrain bool `json:"retrain"`
}

// EnrollResponse reports the enrollment outcome.
type EnrollResponse struct {
	UserID      int     `json:"user_id"`
	Images      int     `json:"images"`
	DistanceM   float64 `json:"distance_m"`
	TotalUsers  int     `json:"total_users"`
	TotalImages int     `json:"total_images"`
	// RetrainQueued reports that a background retrain was scheduled
	// (enroll with retrain=true).
	RetrainQueued bool `json:"retrain_queued,omitempty"`
}

// AuthRequest authenticates a capture.
type AuthRequest struct {
	Capture CaptureWire `json:"capture"`
}

// AuthResponse reports the decision.
type AuthResponse struct {
	Accepted  bool    `json:"accepted"`
	UserID    int     `json:"user_id"`
	GateScore float64 `json:"gate_score"`
	DistanceM float64 `json:"distance_m"`
	Images    int     `json:"images"`
	// ModelVersion is the registry version of the model that decided.
	ModelVersion int `json:"model_version,omitempty"`
}

// StatusResponse describes the daemon state.
type StatusResponse struct {
	Users       []int `json:"users"`
	Trained     bool  `json:"trained"`
	TotalImages int   `json:"total_images"`
	// ModelVersion is the registry version of the live model.
	ModelVersion int `json:"model_version,omitempty"`
	// Degraded is set only by echoimage-router on aggregated responses:
	// the fan-out that produced this union missed at least one member
	// shard (down or failing), so the figures may undercount. A single
	// daemon never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// RetrainRequest asks the daemon to rebuild the model from the current
// enrollment pools.
type RetrainRequest struct {
	// Wait blocks the response until the rebuild finishes and the new
	// model is live; otherwise the request only queues it.
	Wait bool `json:"wait,omitempty"`
}

// RetrainResponse acknowledges a retrain request.
type RetrainResponse struct {
	// Queued is set when the rebuild was scheduled asynchronously.
	Queued bool `json:"queued"`
	// ModelVersion is the live model version after the request: the new
	// model when Wait was set, the pre-existing one otherwise.
	ModelVersion int `json:"model_version,omitempty"`
}

// ModelInfoResponse reports per-version metadata of the live model.
type ModelInfoResponse struct {
	Trained      bool   `json:"trained"`
	ModelVersion int    `json:"model_version,omitempty"`
	Users        int    `json:"users,omitempty"`
	Images       int    `json:"images,omitempty"`
	TrainMillis  int64  `json:"train_millis,omitempty"`
	TrainedAt    string `json:"trained_at,omitempty"` // RFC 3339
	// Loaded marks a model installed from disk rather than trained by
	// this daemon process.
	Loaded bool `json:"loaded,omitempty"`
	// Extended marks a model produced by incremental extension (only the
	// newly registered users were fit) rather than a full retrain.
	Extended bool `json:"extended,omitempty"`
	// IndexSize is the number of enrollment embeddings across the model's
	// ANN indexes.
	IndexSize int `json:"index_size,omitempty"`
	// LastError is the most recent background training failure, empty
	// once a later train succeeds.
	LastError string `json:"last_error,omitempty"`
	// Degraded is set only by echoimage-router on aggregated responses:
	// the fan-out that produced this merge missed at least one member
	// shard (down or failing). A single daemon never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// HandoffRequest moves one user's shard-local state (enrollment captures)
// between daemons. It is issued by
// echoimage-router during a drain, never by end-user clients, and the
// router does not route it — it is always addressed to a specific shard.
// Exactly one of Export / State must be set: Export asks the shard to
// flush and return the user's serialized state; State asks the shard to
// install a previously exported blob.
type HandoffRequest struct {
	UserID int `json:"user_id"`
	// Export asks the shard to serialize the user's state, flush it to
	// the shard's state directory (when configured), and return the blob.
	Export bool `json:"export,omitempty"`
	// State is a blob from a prior export, in the registry's user-state
	// encoding (version 2: the user's enrollment images), to be installed
	// on the receiving shard.
	State []byte `json:"state,omitempty"`
}

// HandoffResponse reports a handoff outcome.
type HandoffResponse struct {
	UserID int `json:"user_id"`
	// State carries the exported blob (export requests only).
	State []byte `json:"state,omitempty"`
	// Images is the user's enrollment image count on the answering shard.
	Images int `json:"images"`
	// Imported reports that the state was installed. It is false when an
	// identical enrollment was already present — a re-delivered handoff —
	// which is success, not an error.
	Imported bool `json:"imported,omitempty"`
	// RetrainQueued reports that the import scheduled a background
	// retrain so the model converges to cover the new user.
	RetrainQueued bool `json:"retrain_queued,omitempty"`
}

// ErrorResponse carries a failure.
type ErrorResponse struct {
	// Code is one of the stable Code* constants.
	Code    string `json:"code,omitempty"`
	Message string `json:"message"`
}

// Error is an error reply received from a peer, as decoded by ReplyError.
// Code is the stable code the reply carried (empty when its body could not
// be decoded); pass it to RetryableCode to decide whether to retry.
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string {
	if e.Code == "" {
		return "peer error: " + e.Message
	}
	return fmt.Sprintf("peer error [%s]: %s", e.Code, e.Message)
}

// ReplyError returns the failure an error reply carries, as an *Error,
// and nil when env is not an error reply.
func ReplyError(env *Envelope) error {
	if env.Type != TypeError {
		return nil
	}
	var e ErrorResponse
	if err := DecodeBody(env, &e); err != nil {
		return &Error{Message: err.Error()}
	}
	return &Error{Code: e.Code, Message: e.Message}
}

// ErrorCode returns the stable code of the *Error in err's chain, or ""
// when there is none (a transport failure, or nil).
func ErrorCode(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

// WriteEnvelope frames and sends one message: a 4-byte big-endian length,
// then the envelope header as JSON, then the body. The body is written
// byte for byte as it is, unchecked, so an envelope read and written
// again — a router forwarding it — crosses unchanged.
func WriteEnvelope(w io.Writer, env *Envelope) error {
	header, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("proto: marshal envelope: %w", err)
	}
	size := len(header) + len(env.Body)
	if size > MaxMessageBytes {
		return fmt.Errorf("proto: message of %d bytes exceeds limit", size)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(size))
	if _, err := w.Write(prefix[:]); err != nil {
		return fmt.Errorf("proto: write length prefix: %w", err)
	}
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("proto: write header: %w", err)
	}
	if len(env.Body) > 0 {
		if _, err := w.Write(env.Body); err != nil {
			return fmt.Errorf("proto: write body: %w", err)
		}
	}
	return nil
}

// Read receives one framed message. It decodes only the header and takes
// the rest of the frame, uncopied and unchecked, as the body; no bytes
// after the header means no body.
func Read(r io.Reader) (*Envelope, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: read length prefix: %w", err)
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size == 0 || size > MaxMessageBytes {
		return nil, fmt.Errorf("proto: message length %d out of range", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("proto: read payload: %w", err)
	}
	var env Envelope
	dec := json.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("proto: unmarshal envelope header: %w", err)
	}
	env.Body = payload[dec.InputOffset():]
	return &env, nil
}

// DecodeBody unmarshals an envelope body into the given value: the one
// check that a body is JSON, made where a handler can answer it in band.
func DecodeBody(env *Envelope, into any) error {
	if len(env.Body) == 0 {
		return fmt.Errorf("proto: %s message has no body", env.Type)
	}
	if err := json.Unmarshal(env.Body, into); err != nil {
		return fmt.Errorf("proto: unmarshal %s body: %w", env.Type, err)
	}
	return nil
}

// Conn wraps a stream with buffered framed I/O.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// SendEnvelope writes a prepared envelope and flushes.
func (c *Conn) SendEnvelope(env *Envelope) error {
	if err := WriteEnvelope(c.w, env); err != nil {
		return err
	}
	return c.flush()
}

func (c *Conn) flush() error {
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("proto: flush: %w", err)
	}
	return nil
}

// Receive reads the next message.
func (c *Conn) Receive() (*Envelope, error) {
	return Read(c.r)
}

// RoundTrip sends env, flushes, and reads the reply, failing unless the
// reply echoes env's request ID. An error reply is returned as an
// envelope, not an error; decode it with ReplyError. Any error leaves the
// connection in an unknown state, so the caller should close it.
func (c *Conn) RoundTrip(env *Envelope) (*Envelope, error) {
	if err := c.SendEnvelope(env); err != nil {
		return nil, err
	}
	resp, err := c.Receive()
	if err != nil {
		return nil, err
	}
	if resp.RequestID != env.RequestID {
		return nil, fmt.Errorf("proto: reply to %s correlates to request %q, want %q", env.Type, resp.RequestID, env.RequestID)
	}
	return resp, nil
}
