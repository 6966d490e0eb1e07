package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"echoimage/internal/proto"
	"echoimage/internal/retry"
	"echoimage/internal/telemetry"
)

// fastRetry keeps failover tests quick while still exercising backoff.
var fastRetry = retry.Policy{Attempts: 3, Base: time.Millisecond, Cap: 10 * time.Millisecond}

// TestRoutingAffinity proves every user-keyed request lands on the ring
// owner, across many users, and that the response envelope carries the
// client's request ID.
func TestRoutingAffinity(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)}
	r, addr := startRouter(t, Options{Retry: fastRetry}, shards...)
	ring := r.ring.Load()

	c := dialRouter(t, addr)
	for user := 1; user <= 30; user++ {
		resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
		if resp.Type != proto.TypeAuthResponse {
			t.Fatalf("user %d: response %s (code %s)", user, resp.Type, errCode(t, resp))
		}
	}
	for i, f := range shards {
		id := "s" + itoa(i)
		for _, user := range f.seenUsers() {
			if owner := ring.Owner(user); owner != id {
				t.Errorf("user %d served by %s but owned by %s", user, id, owner)
			}
		}
	}
	// Every shard should have seen some share of 30 users.
	for i, f := range shards {
		if len(f.seenUsers()) == 0 {
			t.Errorf("shard s%d served no users (degenerate ring)", i)
		}
	}
}

// TestAuthWithoutHintRefused: the router routes enroll and authenticate
// by the envelope hint alone and never decodes a capture body, so either
// request without a hint is unroutable and refused bad_request before
// any shard sees it.
func TestAuthWithoutHintRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		msgType proto.MsgType
		body    any
	}{
		{"authenticate", proto.TypeAuthRequest, proto.AuthRequest{}},
		{"enroll", proto.TypeEnrollRequest, proto.EnrollRequest{UserID: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeShard(t, nil)
			_, addr := startRouter(t, Options{Retry: fastRetry}, f)
			c := dialRouter(t, addr)
			resp := c.call(tc.msgType, 0, tc.body)
			if code := errCode(t, resp); code != proto.CodeBadRequest {
				t.Errorf("unhinted %s answered %s/%s, want bad_request", tc.name, resp.Type, code)
			}
			if seen := f.seenUsers(); len(seen) != 0 {
				t.Errorf("unhinted %s reached the shard: %v", tc.name, seen)
			}
		})
	}
}

// TestVersionMismatchRefused: the router answers an envelope of any
// version but proto.Version in band with bad_request, echoing the request
// ID, and forwards nothing. That includes a frame in the version 2
// layout, whose body sits inside the envelope object.
func TestVersionMismatchRefused(t *testing.T) {
	f := newFakeShard(t, nil)
	_, addr := startRouter(t, Options{Retry: fastRetry}, f)
	c := dialRouter(t, addr)
	for _, v := range []int{0, 2, 4} {
		for _, msgType := range []proto.MsgType{proto.TypeAuthRequest, proto.TypeStatusRequest} {
			env, err := proto.NewEnvelope(msgType, "v-"+itoa(v)+"-"+string(msgType), proto.AuthRequest{})
			if err != nil {
				t.Fatal(err)
			}
			env.Version, env.User = v, 3
			resp := c.send(env)
			if code := errCode(t, resp); code != proto.CodeBadRequest {
				t.Errorf("version %d %s answered %s/%s, want bad_request", v, msgType, resp.Type, code)
			}
		}
	}
	legacy := []byte(`{"version":2,"request_id":"v2-layout","type":"authenticate","user":3,"body":{"capture":{"beeps":[[[0.5]]],"sample_rate":48000}}}`)
	if _, err := c.conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(legacy))), legacy...)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.pc.Receive()
	if err != nil {
		t.Fatalf("version 2 frame: %v", err)
	}
	if code := errCode(t, resp); code != proto.CodeBadRequest || resp.RequestID != "v2-layout" {
		t.Errorf("version 2 frame answered %s/%s for %q, want bad_request", resp.Type, code, resp.RequestID)
	}
	if seen := f.seenUsers(); len(seen) != 0 {
		t.Errorf("mismatched versions reached the shard: %v", seen)
	}
	// The connection survives the refusals.
	if resp := c.call(proto.TypeAuthRequest, 3, proto.AuthRequest{}); resp.Type != proto.TypeAuthResponse {
		t.Errorf("current-version auth answered %s (code %s)", resp.Type, errCode(t, resp))
	}
}

// TestNonJSONBodyCrossesRouter: the router forwards a body it never
// reads, so an enroll whose body is not JSON reaches the owning shard
// byte for byte, the shard's in-band bad_request comes back to the
// client, and the client's connection keeps serving.
func TestNonJSONBodyCrossesRouter(t *testing.T) {
	bodies := make(chan []byte, 1)
	f := newFakeShard(t, func(env *proto.Envelope) *proto.Envelope {
		if env.Type != proto.TypeEnrollRequest {
			return respEnv(proto.TypeStatusResponse, proto.StatusResponse{Users: []int{}})
		}
		bodies <- env.Body
		if err := proto.DecodeBody(env, &proto.EnrollRequest{}); err != nil {
			return errEnv(proto.CodeBadRequest, err.Error())
		}
		return respEnv(proto.TypeEnrollResponse, proto.EnrollResponse{UserID: env.User})
	})
	_, addr := startRouter(t, Options{Retry: fastRetry}, f)
	c := dialRouter(t, addr)
	body := []byte("\x00 not JSON {\"user_id\":3,")
	resp := c.send(&proto.Envelope{Version: proto.Version, RequestID: "non-json", User: 3, Type: proto.TypeEnrollRequest, Body: body})
	if code := errCode(t, resp); code != proto.CodeBadRequest || resp.RequestID != "non-json" {
		t.Errorf("non-JSON enroll answered %s/%s for %q, want the shard's bad_request", resp.Type, code, resp.RequestID)
	}
	select {
	case got := <-bodies:
		if !bytes.Equal(got, body) {
			t.Errorf("shard received body %q, want %q", got, body)
		}
	default:
		t.Fatal("the enroll never reached the shard")
	}
	if resp := c.call(proto.TypeStatusRequest, 0, nil); resp.Type != proto.TypeStatusResponse {
		t.Errorf("status after the refusal answered %s (code %s)", resp.Type, errCode(t, resp))
	}
}

// TestPooledConnDeadlineCleared: an exchange without a timeout clears
// the deadline a pooled connection kept from its previous exchange, so
// reusing the connection after that deadline passed costs no redial.
func TestPooledConnDeadlineCleared(t *testing.T) {
	r, _ := startRouter(t, Options{Retry: fastRetry}, newFakeShard(t, nil))
	shard, _ := r.table.Get("s0")
	status := func(reqID string, timeout time.Duration) {
		t.Helper()
		env, err := proto.NewEnvelope(proto.TypeStatusRequest, reqID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.roundTrip(context.Background(), &shard, env, timeout); err != nil {
			t.Fatalf("%s: %v", reqID, err)
		}
	}
	const timeout = 50 * time.Millisecond
	status("bounded", timeout)
	time.Sleep(2 * timeout)
	status("unbounded", 0)
	if n := r.met.redials.Value(); n != 0 {
		t.Errorf("reusing the pooled connection cost %d redials, want 0", n)
	}
}

// TestMismatchedShardEchoFailsOver: a shard reply correlated to another
// request is a transport failure — the upstream connection is retired and
// the request fails over to the next ring candidate — never a result
// handed to the client.
func TestMismatchedShardEchoFailsOver(t *testing.T) {
	var crossed atomic.Int64
	crosstalk := func(env *proto.Envelope) *proto.Envelope {
		crossed.Add(1)
		resp := respEnv(proto.TypeAuthResponse, proto.AuthResponse{Accepted: true, UserID: 99})
		resp.RequestID = env.RequestID + "-stale"
		return resp
	}
	a := newFakeShard(t, crosstalk)
	b := newFakeShard(t, crosstalk)
	r, addr := startRouter(t, Options{Retry: fastRetry}, a, b)
	const user = 4
	fallback := a
	if r.ring.Load().Owner(user) == "s0" {
		fallback = b
	}
	fallback.setHandle(fallback.okHandler)

	c := dialRouter(t, addr)
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	var auth proto.AuthResponse
	if err := proto.DecodeBody(resp, &auth); err != nil || resp.Type != proto.TypeAuthResponse || auth.UserID != user {
		t.Fatalf("answered %s %+v (%v), want the fallback's result for user %d", resp.Type, auth, err, user)
	}
	if crossed.Load() == 0 {
		t.Error("owner never answered (test raced the script)")
	}
	if v := r.met.failovers.Value(); v == 0 {
		t.Error("failover not counted")
	}
}

// TestFailoverOnRetryableRefusal: the owner sheds with overloaded, the
// next ring candidate answers, the client sees success plus a failover
// metric — the overloaded shard's refusal never reaches the client.
func TestFailoverOnRetryableRefusal(t *testing.T) {
	var shed atomic.Int64
	overloaded := func(env *proto.Envelope) *proto.Envelope {
		shed.Add(1)
		return errEnv(proto.CodeOverloaded, "queue full")
	}
	// Both shards scripted: whichever owns the user sheds, the other
	// accepts.
	a := newFakeShard(t, overloaded)
	b := newFakeShard(t, overloaded)
	r, addr := startRouter(t, Options{Retry: fastRetry}, a, b)
	ring := r.ring.Load()
	const user = 3
	owner := ring.Owner(user)
	// Re-script the fallback to succeed.
	fallback := a
	if owner == "s0" {
		fallback = b
	}
	fallback.setHandle(fallback.okHandler)

	c := dialRouter(t, addr)
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("failover answered %s (code %s)", resp.Type, errCode(t, resp))
	}
	if shed.Load() == 0 {
		t.Error("owner never shed (test raced the script)")
	}
	if v := r.met.failovers.Value(); v == 0 {
		t.Error("failover not counted")
	}
}

// TestFallbackNotTrainedMapsToUnavailable pins the error-mapping rule:
// when the owner is dead and the fallback has no model, the client sees
// retryable unavailable — not a permanent not_trained verdict about a
// user who is, in fact, enrolled on the (temporarily lost) owner.
func TestFallbackNotTrainedMapsToUnavailable(t *testing.T) {
	notTrained := func(env *proto.Envelope) *proto.Envelope {
		return errEnv(proto.CodeNotTrained, "no trained model")
	}
	a := newFakeShard(t, notTrained)
	b := newFakeShard(t, notTrained)
	r, addr := startRouter(t, Options{Retry: fastRetry}, a, b)
	ring := r.ring.Load()
	const user = 5
	// Kill the owner outright.
	if ring.Owner(user) == "s0" {
		a.close()
	} else {
		b.close()
	}

	c := dialRouter(t, addr)
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	if code := errCode(t, resp); code != proto.CodeUnavailable {
		t.Errorf("lost-owner auth answered %s/%s, want retryable unavailable", resp.Type, code)
	}
}

// TestOwnerNotTrainedPassesThrough: the owner's own not_trained is the
// truth and crosses unmapped.
func TestOwnerNotTrainedPassesThrough(t *testing.T) {
	notTrained := func(env *proto.Envelope) *proto.Envelope {
		return errEnv(proto.CodeNotTrained, "no trained model")
	}
	_, addr := startRouter(t, Options{Retry: fastRetry}, newFakeShard(t, notTrained))
	c := dialRouter(t, addr)
	resp := c.call(proto.TypeAuthRequest, 1, proto.AuthRequest{})
	if code := errCode(t, resp); code != proto.CodeNotTrained {
		t.Errorf("owner not_trained answered %s/%s, want not_trained verbatim", resp.Type, code)
	}
}

// TestDrainingExcludedFromNewCaptures: draining removes a shard from new
// capture routing without reshuffling the ring; model-wide fan-outs
// still consult it.
func TestDrainingExcludedFromNewCaptures(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil)}
	r, addr := startRouter(t, Options{Retry: fastRetry}, shards...)
	ring := r.ring.Load()
	const user = 2
	owner := ring.Owner(user)
	ownerIdx := 0
	if owner == "s1" {
		ownerIdx = 1
	}
	if err := r.DrainShard(owner); err != nil {
		t.Fatal(err)
	}
	if got := r.ring.Load(); got != ring {
		t.Error("drain rebuilt the ring (ownership must not move)")
	}
	// Let the async drain handoff finish its scans before counting the
	// shard's traffic — its status probes also land in seenUsers.
	waitHandoff(t, r, owner)

	c := dialRouter(t, addr)
	before := len(shards[ownerIdx].seenUsers())
	resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("auth during drain answered %s (code %s)", resp.Type, errCode(t, resp))
	}
	if got := len(shards[ownerIdx].seenUsers()); got != before {
		t.Error("draining shard received a new capture")
	}

	// Fan-out status still includes the draining shard.
	resp = c.call(proto.TypeStatusRequest, 0, nil)
	if resp.Type != proto.TypeStatusResponse {
		t.Fatalf("status answered %s", resp.Type)
	}
	if got := len(shards[ownerIdx].seenUsers()); got != before+1 {
		t.Error("draining shard excluded from status fan-out")
	}
}

// TestStatusFanoutAggregates merges per-shard status into one view.
func TestStatusFanoutAggregates(t *testing.T) {
	mk := func(users []int, images, version int) func(env *proto.Envelope) *proto.Envelope {
		return func(env *proto.Envelope) *proto.Envelope {
			if env.Type != proto.TypeStatusRequest {
				return errEnv(proto.CodeUnknownType, "script only answers status")
			}
			return respEnv(proto.TypeStatusResponse, proto.StatusResponse{
				Users: users, Trained: true, TotalImages: images, ModelVersion: version,
			})
		}
	}
	a := newFakeShard(t, mk([]int{1, 4}, 10, 3))
	b := newFakeShard(t, mk([]int{2}, 5, 7))
	_, addr := startRouter(t, Options{Retry: fastRetry}, a, b)

	c := dialRouter(t, addr)
	resp := c.call(proto.TypeStatusRequest, 0, nil)
	var status proto.StatusResponse
	if err := proto.DecodeBody(resp, &status); err != nil {
		t.Fatal(err)
	}
	if !status.Trained || status.TotalImages != 15 || status.ModelVersion != 7 {
		t.Errorf("aggregate status %+v", status)
	}
	if len(status.Users) != 3 || status.Users[0] != 1 || status.Users[1] != 2 || status.Users[2] != 4 {
		t.Errorf("aggregate users %v, want sorted union [1 2 4]", status.Users)
	}
}

// TestUnknownTypeAnswered: the router answers garbage types itself.
func TestUnknownTypeAnswered(t *testing.T) {
	_, addr := startRouter(t, Options{Retry: fastRetry}, newFakeShard(t, nil))
	c := dialRouter(t, addr)
	resp := c.call(proto.MsgType("bogus"), 0, nil)
	if code := errCode(t, resp); code != proto.CodeUnknownType {
		t.Errorf("bogus type answered %s/%s", resp.Type, code)
	}
}

// TestAdminControlSurface drives the JSON shard control surface:
// add, drain, remove, plus the GET listing with derived states.
func TestAdminControlSurface(t *testing.T) {
	f := newFakeShard(t, nil)
	r, _ := startRouter(t, Options{Retry: fastRetry})
	srv := httptest.NewServer(AdminHandler(r, telemetry.AdminHandler(telemetry.AdminOptions{Registry: r.Telemetry()})))
	defer srv.Close()

	post := func(cmd ShardCommand) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(cmd)
		resp, err := http.Post(srv.URL+"/cluster/shards", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(ShardCommand{Action: "add", ID: "s0", Addr: f.addr()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add answered %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = post(ShardCommand{Action: "add", ID: "s0", Addr: f.addr()}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate add answered %d, want conflict", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = post(ShardCommand{Action: "drain", ID: "s0"}); resp.StatusCode != http.StatusOK {
		t.Errorf("drain answered %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Removal is gated on the drain handoff; poll the rebalance report
	// until it completes (the fake holds no users, so this is quick).
	deadline := time.Now().Add(10 * time.Second)
	for {
		rresp, err := http.Get(srv.URL + "/cluster/rebalance")
		if err != nil {
			t.Fatal(err)
		}
		var report RebalanceReport
		if err := json.NewDecoder(rresp.Body).Decode(&report); err != nil {
			t.Fatal(err)
		}
		rresp.Body.Close()
		if len(report.Handoffs) == 1 && report.Handoffs[0].Status == HandoffComplete {
			if len(report.Shards) != 1 || report.Shards[0].ID != "s0" || report.Shards[0].KeyspaceShare != 1 {
				t.Errorf("rebalance report shards %+v", report.Shards)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain handoff never completed: %+v", report.Handoffs)
		}
		time.Sleep(2 * time.Millisecond)
	}

	get, err := http.Get(srv.URL + "/cluster/shards")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Shards []struct {
			ID    string `json:"id"`
			State State  `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(get.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if len(doc.Shards) != 1 || doc.Shards[0].ID != "s0" || doc.Shards[0].State != StateDraining {
		t.Errorf("shard listing %+v", doc)
	}

	if resp = post(ShardCommand{Action: "remove", ID: "s0"}); resp.StatusCode != http.StatusOK {
		t.Errorf("remove answered %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = post(ShardCommand{Action: "bogus", ID: "s0"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus action answered %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Base observability endpoints still answer through the wrapper.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics through cluster admin answered %d", mresp.StatusCode)
	}
}

// TestProberMarksDownAndRecovers flips a fake /healthz and watches the
// table follow it.
func TestProberMarksDownAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	admin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer admin.Close()

	f := newFakeShard(t, nil)
	r := New(Options{Retry: fastRetry})
	if err := r.AddShard("s0", f.addr(), admin.Listener.Addr().String()); err != nil {
		t.Fatal(err)
	}
	p := NewProber(r, time.Hour, time.Second)

	ctx := context.Background()
	p.Sweep(ctx)
	if s, _ := r.Table().Get("s0"); s.State() != StateActive {
		t.Errorf("healthy probe left state %v", s.State())
	}
	healthy.Store(false)
	p.Sweep(ctx)
	if s, _ := r.Table().Get("s0"); s.State() != StateDown {
		t.Errorf("failed probe left state %v", s.State())
	}
	healthy.Store(true)
	p.Sweep(ctx)
	if s, _ := r.Table().Get("s0"); s.State() != StateActive {
		t.Errorf("recovered probe left state %v", s.State())
	}
}
