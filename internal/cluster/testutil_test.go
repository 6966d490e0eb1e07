package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"echoimage/internal/proto"
)

// fakeShard is a scripted proto-speaking backend: it answers like a
// daemon (request ID echoed, v2 version) but with handler-provided
// bodies, so router behavior — affinity, failover, draining, error
// mapping — is tested deterministically without the sensing pipeline.
type fakeShard struct {
	t  *testing.T
	ln net.Listener
	mu sync.Mutex
	// wrap optionally decorates each accepted connection (faultnet).
	// Guarded by mu so chaos tests may arm faults on a live shard.
	wrap func(net.Conn) net.Conn
	// handle produces the response type and body for one request. A nil
	// envelope return drops the connection (simulating a crash mid
	// request). Guarded by mu so tests may re-script a live shard.
	handle func(env *proto.Envelope) *proto.Envelope
	users  []int
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// setWrap arms per-connection fault injection on a live shard.
func (f *fakeShard) setWrap(w func(net.Conn) net.Conn) {
	f.mu.Lock()
	f.wrap = w
	f.mu.Unlock()
}

// setHandle re-scripts a live shard's responses.
func (f *fakeShard) setHandle(h func(env *proto.Envelope) *proto.Envelope) {
	f.mu.Lock()
	f.handle = h
	f.mu.Unlock()
}

// newFakeShard starts a shard answering via handle (nil means okHandler).
func newFakeShard(t *testing.T, handle func(env *proto.Envelope) *proto.Envelope) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeShard{t: t, ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	if f.handle == nil {
		f.handle = f.okHandler
	}
	f.wg.Add(1)
	go f.serve()
	t.Cleanup(f.close)
	return f
}

func (f *fakeShard) addr() string { return f.ln.Addr().String() }

// close stops the shard: the listener goes first, then every live
// connection — the router holds idle pooled connections open, and the
// per-connection goroutines would otherwise block in Receive forever.
func (f *fakeShard) close() {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	if !already {
		f.ln.Close()
		for _, c := range conns {
			c.Close()
		}
	}
	f.wg.Wait()
}

// dropConns closes every live server-side connection while keeping the
// listener up — the idle-timeout kill a real daemon applies to pooled
// router connections.
func (f *fakeShard) dropConns() {
	f.mu.Lock()
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// seenUsers returns the routing hints of every request this shard
// served, in arrival order.
func (f *fakeShard) seenUsers() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.users...)
}

func (f *fakeShard) serve() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.wrap != nil {
			conn = f.wrap(conn)
		}
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				conn.Close()
				f.mu.Lock()
				delete(f.conns, conn)
				f.mu.Unlock()
			}()
			pc := proto.NewConn(conn)
			for {
				env, err := pc.Receive()
				if err != nil {
					if !errors.Is(err, io.EOF) {
						return
					}
					return
				}
				f.mu.Lock()
				f.users = append(f.users, env.User)
				handle := f.handle
				f.mu.Unlock()
				resp := handle(env)
				if resp == nil {
					return
				}
				resp.Version = proto.Version
				if resp.RequestID == "" {
					resp.RequestID = env.RequestID
				}
				if err := pc.SendEnvelope(resp); err != nil {
					return
				}
			}
		}()
	}
}

// okHandler answers every request type with a plausible success body.
func (f *fakeShard) okHandler(env *proto.Envelope) *proto.Envelope {
	switch env.Type {
	case proto.TypeAuthRequest:
		return respEnv(proto.TypeAuthResponse, proto.AuthResponse{Accepted: true, UserID: env.User, ModelVersion: 1})
	case proto.TypeEnrollRequest:
		var req proto.EnrollRequest
		proto.DecodeBody(env, &req)
		return respEnv(proto.TypeEnrollResponse, proto.EnrollResponse{UserID: req.UserID, Images: 1, TotalUsers: 1, TotalImages: 1})
	case proto.TypeStatusRequest:
		return respEnv(proto.TypeStatusResponse, proto.StatusResponse{Trained: true, Users: []int{}, ModelVersion: 1})
	case proto.TypeRetrainRequest:
		return respEnv(proto.TypeRetrainResponse, proto.RetrainResponse{Queued: true, ModelVersion: 1})
	case proto.TypeModelInfoRequest:
		return respEnv(proto.TypeModelInfoResponse, proto.ModelInfoResponse{Trained: true, Users: 1, ModelVersion: 1})
	default:
		return errEnv(proto.CodeUnknownType, "unknown type")
	}
}

// respEnv builds a response envelope with the given body; the fake's
// serve loop fills in the version and, unless the handler set one, the
// request ID.
func respEnv(msgType proto.MsgType, body any) *proto.Envelope {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return &proto.Envelope{Type: msgType, Body: raw}
}

func errEnv(code, msg string) *proto.Envelope {
	return respEnv(proto.TypeError, proto.ErrorResponse{Code: code, Message: msg})
}

// testClient dials a router listener and provides one-call round trips.
type testClient struct {
	t    *testing.T
	conn net.Conn
	pc   *proto.Conn
	seq  int
}

func dialRouter(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, pc: proto.NewConn(conn)}
}

// call sends one routed request and returns the response envelope,
// asserting the request ID echo.
func (c *testClient) call(msgType proto.MsgType, user int, body any) *proto.Envelope {
	c.t.Helper()
	c.seq++
	reqID := "test-" + string(rune('a'+c.seq%26)) + "-" + itoa(c.seq)
	env, err := proto.NewEnvelope(msgType, reqID, body)
	if err != nil {
		c.t.Fatal(err)
	}
	env.User = user
	return c.send(env)
}

// send runs one prepared envelope through RoundTrip, which asserts the
// request ID echo.
func (c *testClient) send(env *proto.Envelope) *proto.Envelope {
	c.t.Helper()
	resp, err := c.pc.RoundTrip(env)
	if err != nil {
		c.t.Fatalf("round trip: %v", err)
	}
	if resp.Version != proto.Version {
		c.t.Fatalf("response version %d, want %d", resp.Version, proto.Version)
	}
	return resp
}

// errCode decodes the stable code of an error response ("" for
// non-error responses).
func errCode(t *testing.T, env *proto.Envelope) string {
	t.Helper()
	if env.Type != proto.TypeError {
		return ""
	}
	code := proto.ErrorCode(proto.ReplyError(env))
	if code == "" {
		t.Fatalf("error reply without a code: %s", env.Body)
	}
	return code
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// startRouter builds a router over the given shards (IDs s0, s1, ...)
// and serves it on a loopback listener, returning the router and its
// address.
func startRouter(t *testing.T, opts Options, shards ...*fakeShard) (*Router, string) {
	t.Helper()
	r := New(opts)
	for i, f := range shards {
		if err := r.AddShard("s"+itoa(i), f.addr(), ""); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.Serve(ctx, ln)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		r.Close()
	})
	return r, ln.Addr().String()
}

// waitHandoff blocks until the shard's drain handoff leaves the running
// state and returns its final record. Drains hand off asynchronously, so
// tests observing the draining shard's traffic or removing it must
// synchronize here first.
func waitHandoff(t *testing.T, r *Router, id string) Handoff {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, h := range r.Handoffs() {
			if h.Shard == id && h.Status != HandoffRunning {
				return h
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("handoff for %s never finished", id)
	return Handoff{}
}
