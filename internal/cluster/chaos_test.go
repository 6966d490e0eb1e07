package cluster

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"echoimage/internal/faultnet"
	"echoimage/internal/proto"
	"echoimage/internal/retry"
)

// shardIndex maps the startRouter naming convention ("s0", "s1", ...)
// back to a slice index.
func shardIndex(t *testing.T, id string) int {
	t.Helper()
	if len(id) < 2 || id[0] != 's' {
		t.Fatalf("unexpected shard id %q", id)
	}
	n := 0
	for _, r := range id[1:] {
		n = n*10 + int(r-'0')
	}
	return n
}

// chaosRing precomputes ownership for a 3-shard cluster so tests can arm
// faults on exactly the shard a user routes to. The ring depends only on
// the IDs, so this matches what the router will build.
func chaosRing() *Ring { return BuildRing([]string{"s0", "s1", "s2"}, 0) }

// TestChaosMidFrameCut cuts the owner's response connection mid-frame —
// the truncated-frame failure a crashing shard actually produces, not a
// clean EOF — and expects the router to fail over to the next ring
// candidate transparently.
func TestChaosMidFrameCut(t *testing.T) {
	const user = 11
	ring := chaosRing()
	owner := shardIndex(t, ring.Owner(user))
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)}
	// Every connection to the owner dies after 10 written bytes: the
	// 4-byte length prefix plus a sliver of JSON body.
	shards[owner].setWrap(func(c net.Conn) net.Conn {
		return faultnet.Wrap(c, faultnet.Faults{CutAfterWriteBytes: 10})
	})
	r, addr := startRouter(t, Options{Retry: fastRetry}, shards...)

	c := dialRouter(t, addr)
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("mid-frame cut surfaced to the client: %s/%s", resp.Type, errCode(t, resp))
	}
	if r.met.failovers.Value() == 0 {
		t.Error("cut did not register as a failover")
	}
	if len(shards[owner].seenUsers()) == 0 {
		t.Error("test vacuous: owner never saw the request")
	}
}

// TestChaosUpstreamStall freezes the owner's response mid-frame for
// longer than the upstream timeout; the router's deadline must fire and
// drive failover instead of hanging the client for the stall duration.
func TestChaosUpstreamStall(t *testing.T) {
	const user = 23
	ring := chaosRing()
	owner := shardIndex(t, ring.Owner(user))
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)}
	shards[owner].setWrap(func(c net.Conn) net.Conn {
		return faultnet.Wrap(c, faultnet.Faults{StallAfterWriteBytes: 2, StallFor: time.Second})
	})
	r, addr := startRouter(t, Options{Retry: fastRetry, UpstreamTimeout: 100 * time.Millisecond}, shards...)

	c := dialRouter(t, addr)
	start := time.Now()
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("stall surfaced to the client: %s/%s", resp.Type, errCode(t, resp))
	}
	// The client must be answered on the deadline path, not the stall's
	// schedule. Generous bound: deadline + backoff ≪ the 1s stall.
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("response took %v — waited out the stall instead of failing over", elapsed)
	}
	if r.met.failovers.Value() == 0 {
		t.Error("stall did not register as a failover")
	}
}

// silentShard starts a shard that reads each request and answers none
// until release is called (at the latest when the test ends); the
// handlers then drop their connections. The returned channel receives
// once per request.
func silentShard(t *testing.T) (f *fakeShard, seen <-chan proto.MsgType, release func()) {
	unblock := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	got := make(chan proto.MsgType, 16)
	f = newFakeShard(t, func(env *proto.Envelope) *proto.Envelope {
		select {
		case got <- env.Type:
		default:
		}
		<-unblock
		return nil
	})
	// Cleanups run last-registered first: unblock the handlers before the
	// shard waits for them.
	t.Cleanup(release)
	return f, got, release
}

// TestServeReturnsDespiteSilentShard: with the zero Options (no upstream
// timeout), a shard that accepts a request and never answers must not
// keep Serve from returning once its context is cancelled.
func TestServeReturnsDespiteSilentShard(t *testing.T) {
	r := New(Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		<-served
		r.Close()
	})
	f, seen, _ := silentShard(t)
	if err := r.AddShard("s0", f.addr(), ""); err != nil {
		t.Fatal(err)
	}
	go func() {
		r.Serve(ctx, ln)
		close(served)
	}()

	c := dialRouter(t, ln.Addr().String())
	env, err := proto.NewEnvelope(proto.TypeAuthRequest, "silent-1", proto.AuthRequest{})
	if err != nil {
		t.Fatal(err)
	}
	env.User = 1
	if err := c.pc.SendEnvelope(env); err != nil {
		t.Fatal(err)
	}
	select {
	case <-seen:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never received the request")
	}
	cancel()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still blocked 2s after cancellation, waiting on a silent shard")
	}
}

// pipeListener hands out the server ends queued on conns, then blocks
// until closed, so a test can serve a net.Pipe through Serve.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeBoundedWhenClientNeverReads: a client that sends a request
// and never reads the reply pins the router's reply write, because the
// zero Options set no write timeout. Cancelling Serve must still return
// once the shutdown grace expires, force-closing that connection.
func TestServeBoundedWhenClientNeverReads(t *testing.T) {
	r := New(Options{})
	t.Cleanup(r.Close)
	r.loop.Grace = 50 * time.Millisecond
	client, server := net.Pipe()
	defer client.Close()
	ln := &pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	ln.conns <- server
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- r.Serve(ctx, ln) }()

	env, err := proto.NewEnvelope(proto.TypeStatusRequest, "never-read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteEnvelope(client, env); err != nil {
		t.Fatal(err)
	}
	// With no shards the status is refused; the refusal is counted just
	// before the reply is written into the pipe nobody reads.
	refusals := r.met.serve.Errors.With(proto.CodeUnavailable)
	for deadline := time.Now().Add(5 * time.Second); refusals.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("router never answered the status request")
		}
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still blocked 2s after cancellation, on a reply the client never reads")
	}
}

// TestCloseReturnsDespiteSilentShard: a drain handoff whose source shard
// never answers must not keep Close (which awaits handoff pipelines) from
// returning under the zero Options.
func TestCloseReturnsDespiteSilentShard(t *testing.T) {
	f, seen, release := silentShard(t)
	r, _ := startRouter(t, Options{}, f)
	// Should Close hang, unblock the shard before the router's own cleanup
	// closes it again, so a failing run ends instead of hanging.
	t.Cleanup(release)
	if err := r.DrainShard("s0"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-seen:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never received the handoff scan")
	}
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked after 2s, waiting on a handoff to a silent shard")
	}
}

// TestChaosShardKilledMidRun is the acceptance scenario: a 3-shard
// cluster serving many users loses one shard outright. Surviving shards'
// users must see zero errors; the killed shard's users must fail over
// within the router's retry budget — no non-retryable error ever reaches
// a client.
func TestChaosShardKilledMidRun(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)}
	r, addr := startRouter(t, Options{Retry: retry.Policy{
		Attempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond,
	}}, shards...)
	ring := r.ring.Load()

	const users = 30
	c := dialRouter(t, addr)
	// Round 1: everyone authenticates against a healthy cluster.
	for user := 1; user <= users; user++ {
		if resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{}); resp.Type != proto.TypeAuthResponse {
			t.Fatalf("healthy round: user %d answered %s/%s", user, resp.Type, errCode(t, resp))
		}
	}

	// Kill s1 — listener and every live connection, including the
	// router's pooled ones.
	const killed = "s1"
	shards[1].close()

	// Round 2: every user again. Owners on s0/s2 must be untouched; s1's
	// users ride failover. Nothing non-retryable may surface.
	lost := 0
	for user := 1; user <= users; user++ {
		resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
		if ring.Owner(user) == killed {
			lost++
		}
		if resp.Type != proto.TypeAuthResponse {
			code := errCode(t, resp)
			if !proto.RetryableCode(code) {
				t.Fatalf("user %d (owner %s) got non-retryable %s after shard kill", user, ring.Owner(user), code)
			}
			t.Errorf("user %d (owner %s) not recovered within retry budget: %s", user, ring.Owner(user), code)
		}
	}
	if lost == 0 {
		t.Error("test vacuous: killed shard owned no users")
	}
	if r.met.failovers.Value() == 0 {
		t.Error("shard kill produced no failovers")
	}
}

// TestChaosDrainKeepsInFlight drains a shard while it is serving a
// request: the in-flight request completes on the draining shard, and
// the next capture for the same user routes around it.
func TestChaosDrainKeepsInFlight(t *testing.T) {
	const user = 4
	ring := chaosRing()
	ownerID := ring.Owner(user)
	owner := shardIndex(t, ownerID)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)}
	slow := func(env *proto.Envelope) *proto.Envelope {
		once.Do(func() { close(started) })
		<-release
		return respEnv(proto.TypeAuthResponse, proto.AuthResponse{Accepted: true, UserID: user})
	}
	shards[owner].setHandle(slow)
	r, addr := startRouter(t, Options{Retry: fastRetry}, shards...)

	// Drain the owner the moment the request is on its wire, then let the
	// handler answer.
	go func() {
		<-started
		if err := r.DrainShard(ownerID); err != nil {
			r.logf("drain: %v", err)
		}
		close(release)
	}()

	c := dialRouter(t, addr)
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("in-flight request on draining shard answered %s/%s", resp.Type, errCode(t, resp))
	}
	if s, _ := r.Table().Get(ownerID); s.State() != StateDraining {
		t.Fatalf("owner state %v after drain", s.State())
	}

	// A fresh capture for the same user must now skip the draining owner.
	// The drain's own handoff scan also reaches the owner; let it finish
	// so only routed captures are counted.
	waitHandoff(t, r, ownerID)
	before := len(shards[owner].seenUsers())
	if resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{}); resp.Type != proto.TypeAuthResponse {
		t.Fatalf("post-drain capture answered %s/%s", resp.Type, errCode(t, resp))
	}
	if got := len(shards[owner].seenUsers()); got != before {
		t.Error("draining shard accepted a new capture")
	}
}
