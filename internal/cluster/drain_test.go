package cluster

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"echoimage/internal/proto"
)

// shardState backs a stateful fake shard: a minimal daemon model with
// real per-user state, so drain/remove tests can prove enrollments
// actually survive a handoff rather than scripting fixed responses.
// Enrollment accumulates per-user image counts, retrain snapshots the
// enrolled set as the covered model, authentication accepts exactly the
// covered users, and the handoff pair exports/imports the per-user
// counts as an opaque blob — the same lifecycle the daemon implements
// over the registry.
type shardState struct {
	mu      sync.Mutex
	images  map[int]int  // user → enrollment image count
	covered map[int]bool // users the current "model" covers
}

func newShardState() *shardState {
	return &shardState{images: make(map[int]int), covered: make(map[int]bool)}
}

// stateBlob is the fake's handoff wire format.
type stateBlob struct {
	UserID int `json:"user_id"`
	Images int `json:"images"`
}

func (st *shardState) users() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.images))
	for u := range st.images {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

func (st *shardState) imageCount(user int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.images[user]
}

func (st *shardState) handler(env *proto.Envelope) *proto.Envelope {
	switch env.Type {
	case proto.TypeEnrollRequest:
		var req proto.EnrollRequest
		if err := proto.DecodeBody(env, &req); err != nil || req.UserID <= 0 {
			return errEnv(proto.CodeBadRequest, "bad enroll")
		}
		st.mu.Lock()
		st.images[req.UserID]++
		n := st.images[req.UserID]
		st.mu.Unlock()
		return respEnv(proto.TypeEnrollResponse, proto.EnrollResponse{UserID: req.UserID, Images: n})
	case proto.TypeAuthRequest:
		st.mu.Lock()
		ok := st.covered[env.User]
		st.mu.Unlock()
		return respEnv(proto.TypeAuthResponse, proto.AuthResponse{Accepted: ok, UserID: env.User, ModelVersion: 1})
	case proto.TypeStatusRequest:
		return respEnv(proto.TypeStatusResponse, proto.StatusResponse{Trained: true, Users: st.users(), ModelVersion: 1})
	case proto.TypeRetrainRequest:
		st.mu.Lock()
		st.covered = make(map[int]bool, len(st.images))
		for u := range st.images {
			st.covered[u] = true
		}
		st.mu.Unlock()
		return respEnv(proto.TypeRetrainResponse, proto.RetrainResponse{Queued: true, ModelVersion: 2})
	case proto.TypeHandoffRequest:
		var req proto.HandoffRequest
		if err := proto.DecodeBody(env, &req); err != nil {
			return errEnv(proto.CodeBadRequest, "bad handoff")
		}
		if req.Export {
			st.mu.Lock()
			n, ok := st.images[req.UserID]
			st.mu.Unlock()
			if !ok {
				return errEnv(proto.CodeBadRequest, "no such user")
			}
			raw, _ := json.Marshal(stateBlob{UserID: req.UserID, Images: n})
			return respEnv(proto.TypeHandoffResponse, proto.HandoffResponse{UserID: req.UserID, State: raw, Images: n})
		}
		var blob stateBlob
		if err := json.Unmarshal(req.State, &blob); err != nil || blob.UserID <= 0 {
			return errEnv(proto.CodeBadRequest, "bad state blob")
		}
		st.mu.Lock()
		st.images[blob.UserID] = blob.Images
		st.mu.Unlock()
		return respEnv(proto.TypeHandoffResponse, proto.HandoffResponse{UserID: blob.UserID, Images: blob.Images, Imported: true})
	case proto.TypeModelInfoRequest:
		return respEnv(proto.TypeModelInfoResponse, proto.ModelInfoResponse{Trained: true, Users: len(st.users()), ModelVersion: 1})
	default:
		return errEnv(proto.CodeUnknownType, "unknown type")
	}
}

// TestRemoveRequiresDrain pins the removal gate: an undrained shard may
// not be removed (that would silently lose its users), force overrides.
func TestRemoveRequiresDrain(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil)}
	r, _ := startRouter(t, Options{Retry: fastRetry}, shards...)

	if err := r.RemoveShard("s1", false); err == nil {
		t.Fatal("remove of an undrained shard succeeded")
	}
	if err := r.RemoveShard("s1", true); err != nil {
		t.Fatalf("forced remove refused: %v", err)
	}
	if _, ok := r.Table().Get("s1"); ok {
		t.Error("forced remove left the shard in membership")
	}
}

// TestChaosDrainRemoveLossless is the acceptance scenario: a 3-shard
// cluster with enrolled users drains and removes one shard under
// concurrent authentication load. Zero users may be lost — after the
// removal every user authenticates, and each user the removed shard held
// lives on exactly its post-removal ring successor with its enrollment
// intact.
func TestChaosDrainRemoveLossless(t *testing.T) {
	states := []*shardState{newShardState(), newShardState(), newShardState()}
	shards := []*fakeShard{
		newFakeShard(t, states[0].handler),
		newFakeShard(t, states[1].handler),
		newFakeShard(t, states[2].handler),
	}
	r, addr := startRouter(t, Options{Retry: fastRetry}, shards...)
	pre := r.ring.Load()

	const users = 12
	c := dialRouter(t, addr)
	for user := 1; user <= users; user++ {
		for i := 0; i < 1+user%3; i++ { // distinct image counts per user
			if resp := c.call(proto.TypeEnrollRequest, user, proto.EnrollRequest{UserID: user}); resp.Type != proto.TypeEnrollResponse {
				t.Fatalf("enroll user %d: %s/%s", user, resp.Type, errCode(t, resp))
			}
		}
	}
	if resp := c.call(proto.TypeRetrainRequest, 0, proto.RetrainRequest{Wait: true}); resp.Type != proto.TypeRetrainResponse {
		t.Fatalf("retrain: %s/%s", resp.Type, errCode(t, resp))
	}
	for user := 1; user <= users; user++ {
		resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
		var auth proto.AuthResponse
		if err := proto.DecodeBody(resp, &auth); err != nil || !auth.Accepted {
			t.Fatalf("healthy round: user %d not accepted (%s/%s)", user, resp.Type, errCode(t, resp))
		}
	}

	// Predict the handoff: victims are s1's users, successors come from
	// the post-removal ring.
	const victim = "s1"
	post := BuildRing([]string{"s0", "s2"}, 0)
	victims := make(map[int]string) // user → successor shard ID
	for user := 1; user <= users; user++ {
		if pre.Owner(user) == victim {
			victims[user] = post.Owner(user)
		}
	}
	if len(victims) == 0 {
		t.Fatal("test vacuous: victim shard owns no users")
	}
	wantImages := make(map[int]int, len(victims))
	for user := range victims {
		wantImages[user] = states[1].imageCount(user)
	}

	// Concurrent authentication load across the drain and removal. The
	// responses' verdicts vary mid-transition (a victim's fallback holds
	// no model until the handoff retrain); the invariant under chaos is
	// transport-level: the router answers every request in-band.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc := dialRouter(t, addr)
			for user := 1; ; user = user%users + 1 {
				select {
				case <-stop:
					return
				default:
				}
				lc.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
			}
		}()
	}

	if err := r.DrainShard(victim); err != nil {
		t.Fatal(err)
	}
	h := waitHandoff(t, r, victim)
	if h.Status != HandoffComplete {
		t.Fatalf("handoff finished %s (%s), want complete", h.Status, h.Error)
	}
	if h.UsersDone != len(victims) || h.UsersFailed != 0 {
		t.Errorf("handoff moved %d users (%d failed), want %d", h.UsersDone, h.UsersFailed, len(victims))
	}
	if err := r.RemoveShard(victim, false); err != nil {
		t.Fatalf("remove after complete handoff refused: %v", err)
	}
	close(stop)
	wg.Wait()

	// Zero lost users: everyone authenticates against the shrunk cluster.
	for user := 1; user <= users; user++ {
		resp := c.call(proto.TypeAuthRequest, user, proto.AuthRequest{})
		var auth proto.AuthResponse
		if err := proto.DecodeBody(resp, &auth); err != nil || !auth.Accepted {
			t.Errorf("user %d lost by removal (%s/%s)", user, resp.Type, errCode(t, resp))
		}
	}
	// Each victim lives on exactly the predicted successor, enrollment
	// intact.
	idx := map[string]*shardState{"s0": states[0], "s2": states[2]}
	for user, succ := range victims {
		if got := idx[succ].imageCount(user); got != wantImages[user] {
			t.Errorf("user %d on successor %s has %d images, want %d", user, succ, got, wantImages[user])
		}
		other := "s0"
		if succ == "s0" {
			other = "s2"
		}
		if pre.Owner(user) != victim {
			continue
		}
		if idx[other].imageCount(user) != 0 && post.Owner(user) != other {
			t.Errorf("user %d leaked onto non-successor %s", user, other)
		}
	}
	// The handoff record and per-shard view survive on the rebalance
	// report after removal.
	report := r.Rebalance(context.Background())
	if len(report.Handoffs) != 1 || report.Handoffs[0].Status != HandoffComplete {
		t.Errorf("rebalance handoffs %+v", report.Handoffs)
	}
	if len(report.Shards) != 2 {
		t.Errorf("rebalance shards %+v", report.Shards)
	}
	for _, row := range report.Shards {
		if row.EnrolledUsers == 0 || row.OwnedUsers == 0 {
			t.Errorf("rebalance row %+v shows an empty shard after handoff", row)
		}
	}
}

// TestCloseAwaitsHandoffPipeline pins the router's shutdown contract:
// Close must wait for running drain handoff pipelines, not just cancel
// them — a cancelled-but-still-running pipeline touching the shard
// table or pools after Close returns is a use-after-close. Cancellation
// interrupts the pipeline's stalled shard call at once, so the pipeline
// is held instead on its way out, in its failure log line.
func TestCloseAwaitsHandoffPipeline(t *testing.T) {
	st := newShardState()
	scanStarted := make(chan struct{})
	release := make(chan struct{})
	var scanOnce sync.Once
	blocking := func(env *proto.Envelope) *proto.Envelope {
		if env.Type == proto.TypeStatusRequest && strings.HasPrefix(env.RequestID, "ho-") {
			scanOnce.Do(func() { close(scanStarted) })
			<-release
		}
		return st.handler(env)
	}
	exiting := make(chan struct{})
	unblockExit := make(chan struct{})
	var exitOnce sync.Once
	logf := func(format string, _ ...any) {
		if strings.Contains(format, "handoff failed") {
			exitOnce.Do(func() { close(exiting) })
			<-unblockExit
		}
	}
	f := newFakeShard(t, blocking)
	r, _ := startRouter(t, Options{Retry: fastRetry, Logf: logf}, f)
	t.Cleanup(func() { close(release) })

	if err := r.DrainShard("s0"); err != nil {
		t.Fatal(err)
	}
	<-scanStarted

	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-exiting:
	case <-time.After(10 * time.Second):
		close(unblockExit)
		t.Fatal("cancelled handoff pipeline never reached its exit path")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a handoff pipeline was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(unblockExit)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the handoff pipeline finished")
	}
	for _, h := range r.Handoffs() {
		if h.Status == HandoffRunning {
			t.Errorf("handoff for %s still recorded as running after Close", h.Shard)
		}
	}
}

// TestRedialOnStalePooledConn: a pooled connection the daemon closed
// while idle must not consume a failover candidate — the router redials
// the same shard once and succeeds, counting a redial, not a failover.
func TestRedialOnStalePooledConn(t *testing.T) {
	f := newFakeShard(t, nil)
	r, addr := startRouter(t, Options{Retry: fastRetry}, f)

	c := dialRouter(t, addr)
	if resp := c.call(proto.TypeAuthRequest, 1, proto.AuthRequest{}); resp.Type != proto.TypeAuthResponse {
		t.Fatalf("warm-up answered %s/%s", resp.Type, errCode(t, resp))
	}
	// The round trip's connection is back in the pool; kill it server-side
	// as an idle-timeout would.
	f.dropConns()

	resp := c.call(proto.TypeAuthRequest, 1, proto.AuthRequest{})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("stale-conn request answered %s/%s", resp.Type, errCode(t, resp))
	}
	if v := r.met.redials.Value(); v == 0 {
		t.Error("stale pooled connection did not count a redial")
	}
	if v := r.met.failovers.Value(); v != 0 {
		t.Errorf("stale pooled connection consumed %d failovers", v)
	}
}

// TestFanoutDegradedOnDownShard: a hintless status/model_info fan-out
// that skips a down member must say so — Degraded set, partial-fanout
// counter bumped — instead of passing a subset off as the cluster view.
func TestFanoutDegradedOnDownShard(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil)}
	r, addr := startRouter(t, Options{Retry: fastRetry}, shards...)
	c := dialRouter(t, addr)

	resp := c.call(proto.TypeStatusRequest, 0, nil)
	var status proto.StatusResponse
	if err := proto.DecodeBody(resp, &status); err != nil {
		t.Fatal(err)
	}
	if status.Degraded {
		t.Error("healthy fan-out marked degraded")
	}

	r.MarkHealth("s1", false)
	resp = c.call(proto.TypeStatusRequest, 0, nil)
	if err := proto.DecodeBody(resp, &status); err != nil {
		t.Fatal(err)
	}
	if !status.Degraded {
		t.Error("status fan-out skipping a down shard not marked degraded")
	}
	resp = c.call(proto.TypeModelInfoRequest, 0, nil)
	var info proto.ModelInfoResponse
	if err := proto.DecodeBody(resp, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Degraded {
		t.Error("model_info fan-out skipping a down shard not marked degraded")
	}
	if v := r.met.partialFanouts.Value(); v < 2 {
		t.Errorf("partial fan-outs counted %d, want ≥ 2", v)
	}

	r.MarkHealth("s1", true)
	resp = c.call(proto.TypeStatusRequest, 0, nil)
	var recovered proto.StatusResponse
	if err := proto.DecodeBody(resp, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.Degraded {
		t.Error("recovered fan-out still marked degraded")
	}
}
